package dbi

// IRBlocks returns the number of blocks in the IR engine's cache.
func (c *Core) IRBlocks() int { return len(c.cache) }
