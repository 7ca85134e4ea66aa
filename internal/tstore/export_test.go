package tstore

import "sort"

// Units returns every unit published in the store, in address order.
func (s *Store) Units() []*Unit {
	s.mu.RLock()
	out := make([]*Unit, 0, len(s.units))
	for _, sl := range s.units {
		out = append(out, sl.u)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
