package core

import (
	"repro/internal/ompt"
	"repro/internal/vm"
)

// ClientRequest implements dbi.Tool: it decodes the OMPT request stream and
// builds the segment graph of the execution. Every event that creates a
// segment only adds edges *into* the new segment, so edges always point
// forward in creation order and the graph stays a DAG by construction.
func (tg *Taskgrind) ClientRequest(t *vm.Thread, code int32, args [6]uint64) uint64 {
	ts, _ := t.Tool.(*threadState)
	if ts == nil {
		ts = tg.newThreadState(t)
	}
	switch code {
	case ompt.CRParallelBegin:
		tg.regions[args[0]] = &regionInfo{
			forkSeg:  ts.cur,
			fnAddr:   args[2],
			arrivals: make(map[uint64][]*Segment),
		}

	case ompt.CRImplicitBegin:
		ri := tg.regions[args[0]]
		label := "parallel@" + tg.locate(ri.fnAddr)
		// Register the implicit task so taskwait/taskgroup by it (and
		// parent links of its children) resolve.
		tg.taskSeq++
		tg.tasks[args[1]] = &taskInfo{
			id: args[1], flags: ompt.FlagImplicit, fnAddr: ri.fnAddr, seq: tg.taskSeq,
		}
		s := tg.newSegment(t, label, args[1])
		if ri.forkSeg != nil {
			tg.graph.AddEdge(ri.forkSeg.Node, s.Node)
		}
		ts.stack = append(ts.stack, ts.cur)
		ts.setCur(s)

	case ompt.CRImplicitEnd:
		ri := tg.regions[args[0]]
		ri.lasts = append(ri.lasts, ts.cur)
		ts.setCur(ts.stack[len(ts.stack)-1])
		ts.stack = ts.stack[:len(ts.stack)-1]

	case ompt.CRParallelEnd:
		ri := tg.regions[args[0]]
		// Join: the serial continuation happens after every implicit
		// task of the region — this is what realizes Eq. 1 structurally.
		s := tg.newSegment(t, "join@"+tg.locate(ri.fnAddr), 0)
		if ri.forkSeg != nil {
			tg.graph.AddEdge(ri.forkSeg.Node, s.Node)
		}
		for _, last := range ri.lasts {
			tg.graph.AddEdge(last.Node, s.Node)
		}
		ts.setCur(s)

	case ompt.CRTaskCreate:
		tg.taskSeq++
		ti := &taskInfo{
			id: args[0], parent: args[1], flags: args[2], fnAddr: args[3],
			seq:        tg.taskSeq,
			createSeg:  ts.cur,
			deferrable: tg.assumeDeferrable,
		}
		tg.tasks[ti.id] = ti
		// The parent may be a runtime-internal task Taskgrind has not
		// seen a create event for (the root task): register a stub so
		// taskwait by it still finds its children.
		tg.ensureTask(args[1], ts).children = append(tg.ensureTask(args[1], ts).children, ti.id)
		// Split the creating segment: the continuation is concurrent
		// with the new task.
		if ts.cur != nil {
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			ts.setCur(cont)
		}

	case ompt.CRTaskDependence:
		if args[3] == ompt.DepMutexinoutset && tg.Opt.IgnoreMutexinoutsetDeps {
			return 1
		}
		if tg.Opt.GlobalDepNamespace {
			// This simulator matches raw dependences itself (see
			// CRTaskDepAddr) instead of trusting sibling matching.
			return 1
		}
		if ti := tg.tasks[args[1]]; ti != nil {
			ti.depPreds = append(ti.depPreds, args[0])
		}

	case ompt.CRTaskDepAddr:
		if !tg.Opt.GlobalDepNamespace {
			return 1
		}
		// Global (cross-parent) dependence matching: the TaskSanitizer
		// mis-modelling. A single last-writer/readers slot per address
		// regardless of the task's parent.
		tg.globalDep(args[0], args[1], args[2])

	case ompt.CRTaskBegin:
		ti := tg.tasks[args[0]]
		if ti == nil {
			return 0
		}
		s := tg.newSegment(t, tg.locate(ti.fnAddr), ti.id)
		ti.firstSeg = s
		if ti.createSeg != nil {
			tg.graph.AddEdge(ti.createSeg.Node, s.Node)
		}
		for _, pid := range ti.depPreds {
			if p := tg.tasks[pid]; p != nil && p.lastSeg != nil {
				tg.graph.AddEdge(p.lastSeg.Node, s.Node)
			}
		}
		ts.stack = append(ts.stack, ts.cur)
		ts.setCur(s)

	case ompt.CRTaskEnd:
		ti := tg.tasks[args[0]]
		if ti == nil {
			return 0
		}
		ti.lastSeg = ts.cur
		ti.completed = true
		ts.setCur(ts.stack[len(ts.stack)-1])
		ts.stack = ts.stack[:len(ts.stack)-1]
		// Undeferred tasks executed inline are *included* in the parent:
		// LLVM fully orders them (§V-A footnote). Unless the program
		// annotated them as semantically deferrable (§V-B), the
		// resumed segment is ordered after the task.
		orderInline := ti.flags&ompt.FlagUndeferred != 0 && !ti.deferrable &&
			!tg.Opt.NoUndeferredOrdering
		if tg.Opt.NoIfZeroOrdering && ti.flags&ompt.FlagIfZero != 0 {
			orderInline = false
		}
		if orderInline && ts.cur != nil {
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			tg.graph.AddEdge(ti.lastSeg.Node, cont.Node)
			ts.setCur(cont)
		}

	case ompt.CRTaskWaitDepPred:
		if ti := tg.ensureTask(args[0], ts); ti != nil {
			ti.waitDepPreds = append(ti.waitDepPreds, args[1])
		}

	case ompt.CRTaskWaitDepsEnd:
		// OpenMP 5.0 `taskwait depend(...)`: the continuation is ordered
		// only after the selected predecessors — unselected children
		// stay concurrent (the DRB165 race Taskgrind catches).
		wti := tg.ensureTask(args[0], ts)
		if ts.cur == nil {
			return 0
		}
		cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
		tg.graph.AddEdge(ts.cur.Node, cont.Node)
		for _, pid := range wti.waitDepPreds {
			if p := tg.tasks[pid]; p != nil && p.lastSeg != nil {
				tg.graph.AddEdge(p.lastSeg.Node, cont.Node)
			}
		}
		wti.waitDepPreds = nil
		ts.setCur(cont)

	case ompt.CRTaskWaitEnd:
		wti := tg.tasks[args[0]]
		if ts.cur == nil {
			return 0
		}
		cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
		tg.graph.AddEdge(ts.cur.Node, cont.Node)
		if wti != nil {
			for _, cid := range wti.children {
				if c := tg.tasks[cid]; c != nil && c.lastSeg != nil {
					tg.graph.AddEdge(c.lastSeg.Node, cont.Node)
				}
			}
		}
		ts.setCur(cont)

	case ompt.CRTaskGroupBegin:
		if ti := tg.ensureTask(args[0], ts); ti != nil {
			// Remember where the group started: descendants created
			// after this sequence number belong to it.
			ti.groupStarts = append(ti.groupStarts, tg.taskSeq)
		}

	case ompt.CRTaskGroupEnd:
		owner := tg.tasks[args[0]]
		if ts.cur == nil {
			return 0
		}
		cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
		tg.graph.AddEdge(ts.cur.Node, cont.Node)
		if owner != nil && len(owner.groupStarts) > 0 && !tg.Opt.NoTaskgroupOrdering {
			start := owner.groupStarts[len(owner.groupStarts)-1]
			owner.groupStarts = owner.groupStarts[:len(owner.groupStarts)-1]
			for _, ti := range tg.tasks {
				if ti.seq > start && ti.lastSeg != nil && tg.isDescendantOf(ti, args[0]) {
					tg.graph.AddEdge(ti.lastSeg.Node, cont.Node)
				}
			}
		}
		ts.setCur(cont)

	case ompt.CRBarrierBegin:
		ri := tg.regions[args[0]]
		if ri != nil && ts.cur != nil {
			ri.arrivals[args[1]] = append(ri.arrivals[args[1]], ts.cur)
		}

	case ompt.CRBarrierEnd:
		ri := tg.regions[args[0]]
		if ri == nil || ts.cur == nil {
			return 0
		}
		// args[1] is the generation after release; arrivals were
		// recorded under the pre-release generation.
		gen := args[1] - 1
		cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
		tg.graph.AddEdge(ts.cur.Node, cont.Node)
		for _, a := range ri.arrivals[gen] {
			tg.graph.AddEdge(a.Node, cont.Node)
		}
		ts.setCur(cont)

	case ompt.CRCriticalAcquire:
		// Taskgrind: mutual exclusion does not order segments for
		// determinacy analysis (paper §VI). Tools with MutexOrders
		// (TaskSanitizer, ROMP) chain critical sections in acquisition
		// order, lockset-style.
		if tg.Opt.MutexOrders && ts.cur != nil {
			if tg.critRel == nil {
				tg.critRel = make(map[uint64]*Segment)
			}
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			if rel := tg.critRel[args[0]]; rel != nil {
				tg.graph.AddEdge(rel.Node, cont.Node)
			}
			ts.setCur(cont)
		}

	case ompt.CRCriticalRelease:
		if tg.Opt.MutexOrders && ts.cur != nil {
			tg.critRel[args[0]] = ts.cur
			// Split so accesses after the release are not covered by
			// the lock edge.
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			ts.setCur(cont)
		}

	case ompt.CRMutexAcquire:
		// Guest-level mutexes follow the same §VI policy as critical
		// sections: mutual exclusion does not order segments for
		// determinacy analysis; only MutexOrders tools chain them.
		if tg.Opt.MutexOrders && ts.cur != nil {
			if tg.critRel == nil {
				tg.critRel = make(map[uint64]*Segment)
			}
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			if rel := tg.critRel[args[0]]; rel != nil {
				tg.graph.AddEdge(rel.Node, cont.Node)
			}
			ts.setCur(cont)
		}

	case ompt.CRMutexRelease:
		if tg.Opt.MutexOrders && ts.cur != nil {
			if tg.critRel == nil {
				tg.critRel = make(map[uint64]*Segment)
			}
			tg.critRel[args[0]] = ts.cur
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			ts.setCur(cont)
		}

	case ompt.CRRelease, ompt.CRCondSignal, ompt.CRCondBroadcast:
		// Generic happens-before release (Qthreads FEB write, condvar
		// signal): data-flow ordering every tool honors, unlike mutual
		// exclusion — a signalled waiter provably returns after the signal.
		if ts.cur != nil {
			if tg.relSeg == nil {
				tg.relSeg = make(map[uint64]*Segment)
			}
			tg.relSeg[args[0]] = ts.cur
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			ts.setCur(cont)
		}

	case ompt.CRAcquire, ompt.CRCondWait:
		if ts.cur != nil {
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			if rel := tg.relSeg[args[0]]; rel != nil {
				tg.graph.AddEdge(rel.Node, cont.Node)
			}
			ts.setCur(cont)
		}

	case ompt.CRAssumeDeferrable:
		if !tg.Opt.IgnoreDeferrableAnnotation {
			tg.assumeDeferrable = args[0] != 0
		}

	case ompt.CRTLSGenBump:
		t.TLSGen++
		if ts.cur != nil {
			// The DTV changed mid-segment: register the new generation
			// on a fresh segment so the §IV-C check sees it.
			cont := tg.newSegment(t, ts.cur.Label, ts.cur.TaskID)
			tg.graph.AddEdge(ts.cur.Node, cont.Node)
			ts.setCur(cont)
		}
	}
	return 1
}

// globalDep is the TaskSanitizer-style global dependence matcher: one
// last-writers/readers slot per address shared by ALL tasks, so dependences
// between non-sibling tasks wrongly order them (FN on DRB173/175).
func (tg *Taskgrind) globalDep(taskID, addr, kind uint64) {
	if tg.Opt.IgnoreMutexinoutsetDeps && kind == ompt.DepMutexinoutset {
		return
	}
	if tg.globalSlots == nil {
		tg.globalSlots = make(map[uint64]*globalSlot)
	}
	slot := tg.globalSlots[addr]
	if slot == nil {
		slot = &globalSlot{}
		tg.globalSlots[addr] = slot
	}
	ti := tg.tasks[taskID]
	if ti == nil {
		return
	}
	depend := func(ids []uint64) {
		for _, id := range ids {
			if id != taskID {
				ti.depPreds = append(ti.depPreds, id)
				// The tool believes this pair is ordered even when the
				// predecessor has not completed (no real edge exists):
				// exactly the blindness that hides non-sibling races.
				tg.believeOrdered(id, taskID)
			}
		}
	}
	switch kind {
	case ompt.DepIn:
		depend(slot.writers)
		slot.readers = append(slot.readers, taskID)
	default: // every writer kind collapses to inout here
		depend(slot.writers)
		depend(slot.readers)
		slot.writers = []uint64{taskID}
		slot.readers = nil
	}
}

// ensureTask returns the taskInfo, creating a stub for runtime-internal
// tasks Taskgrind has not seen a create event for (the root task).
func (tg *Taskgrind) ensureTask(id uint64, ts *threadState) *taskInfo {
	ti := tg.tasks[id]
	if ti == nil {
		ti = &taskInfo{id: id, seq: tg.taskSeq}
		tg.tasks[id] = ti
	}
	return ti
}

// isDescendantOf walks parent links.
func (tg *Taskgrind) isDescendantOf(ti *taskInfo, ancestor uint64) bool {
	for cur := ti; cur != nil; {
		if cur.parent == ancestor {
			return true
		}
		cur = tg.tasks[cur.parent]
	}
	return false
}

// believeOrdered records a task pair the (mis-modelling) tool considers
// ordered regardless of real runtime ordering.
func (tg *Taskgrind) believeOrdered(a, b uint64) {
	if tg.believed == nil {
		tg.believed = make(map[[2]uint64]bool)
	}
	tg.believed[[2]uint64{a, b}] = true
}
