package dbi

// IRBlocks returns the number of blocks in the IR engine's cache.
func (c *Core) IRBlocks() int { return len(c.cache) }

// DropCompiled empties the compiled engine's slot table, so the next
// dispatch of every block translates it again.
func (c *Core) DropCompiled() { clear(c.code) }
