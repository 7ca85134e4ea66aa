package tstore

import "sort"

// EncodeUnit returns the persistent-tier encoding of a unit (without its
// frame): the IR and, when present, the compiled code.
func EncodeUnit(u *Unit) []byte {
	var e enc
	encodeUnit(&e, u)
	return e.buf
}

// Units returns every unit published in the store, in address order.
func (s *Store) Units() []*Unit {
	m := s.snapshot()
	out := make([]*Unit, 0, len(m))
	for _, u := range m {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
