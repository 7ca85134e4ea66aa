package lockgrind

// AllPairsRaces re-runs the race check of a finished run (Fini has run)
// over every pair of active segments — the all-pairs loop the sweep
// replaced, kept as its oracle — and returns the races sorted as Fini
// sorts them. lg.Races is left as Fini made it.
func (lg *Lockgrind) AllPairsRaces() []*Race {
	kept := lg.Races
	defer func() { lg.Races = kept }()
	lg.Races = nil
	active := lg.freeze()
	for i := range active {
		for j := i + 1; j < len(active); j++ {
			s1, s2 := active[i], active[j]
			if s1.thread == s2.thread || lg.graph.Ordered(s1.node, s2.node) ||
				locksetsIntersect(s1.lockset, s2.lockset) {
				continue
			}
			lg.checkPair(s1, s2)
		}
	}
	lg.sortRaces()
	return lg.Races
}
