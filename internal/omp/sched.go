package omp

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/ompt"
	"repro/internal/vm"
)

// hTaskAlloc allocates a task descriptor from the fast pool:
// R0 = payload size, R1 = task function. Returns the descriptor address.
// The pool recycles, so a descriptor freed at task end is immediately reused
// — the unwrappable-allocator behaviour of §IV-B.
func (r *Runtime) hTaskAlloc(m *vm.Machine, t *vm.Thread) vm.HostResult {
	size := t.Regs[guest.R0]
	fn := t.Regs[guest.R1]
	desc := r.Pool.Alloc(TDPayload + size)
	if desc == 0 {
		// Pool exhausted (or fault-injected): return NULL like
		// __kmp_fast_allocate falling back to a failed malloc. The emitted
		// task-creation sequence checks and skips the task.
		r.AllocFailures++
		return vm.HostResult{Ret: 0}
	}
	r.mapAlloc(m, desc)
	m.Mem.Store(desc+TDFn, 8, fn)
	m.Mem.Store(desc+TDFlags, 8, 0)
	return vm.HostResult{Ret: desc}
}

// hTaskEnqueue finishes task creation: R0 = descriptor, R1 = dependence
// array (pairs of {addr, kind} u64 words), R2 = ndeps, R3 = flags. It
// returns 0 when the task was deferred, or the descriptor when the caller
// must execute it inline (undeferred: serialized teams).
func (r *Runtime) hTaskEnqueue(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	desc := t.Regs[guest.R0]
	depArr := t.Regs[guest.R1]
	ndeps := int(t.Regs[guest.R2])
	flags := t.Regs[guest.R3]

	parent := ts.cur
	r.nextTaskID++
	r.TasksCreated++
	task := &Task{
		ID:      r.nextTaskID,
		Desc:    desc,
		Fn:      m.Mem.Load(desc+TDFn, 8),
		Flags:   flags,
		Parent:  parent,
		Region:  ts.Team,
		State:   TaskCreated,
		depMap:  make(map[uint64]*depSlot),
		creator: ts,
	}
	// Undeferred execution: team serialization, or an explicit if(0)/final
	// clause (FlagIfZero set by the front end).
	serialized := ts.Team == nil || len(ts.Team.Members) == 1
	inline := serialized || flags&ompt.FlagIfZero != 0
	if inline {
		task.Flags |= ompt.FlagUndeferred
		r.TasksUndeferred++
	}
	m.Mem.Store(desc+TDID, 8, task.ID)
	m.Mem.Store(desc+TDFlags, 8, task.Flags)
	r.tasksByID[task.ID] = task

	parent.incompleteChildren++
	if g := r.activeGroup(parent); g != nil {
		task.group = g
		g.incomplete++
	}
	if task.Region != nil {
		task.Region.incompleteTasks++
	}

	r.Events.TaskCreate(t, task.ID, parent.ID, task.Flags, task.Fn, desc)
	r.ctrTaskCreate.Inc()
	if r.tracing() {
		r.emit(obs.PhaseInstant, t, "task_create",
			map[string]any{"task": task.ID, "parent": parent.ID, "fn": task.Fn})
	}

	// Dependence matching against siblings (same parent namespace).
	for i := 0; i < ndeps; i++ {
		addr := m.Mem.Load(depArr+uint64(i)*16, 8)
		kind := m.Mem.Load(depArr+uint64(i)*16+8, 8)
		r.Events.TaskDepRaw(t, task.ID, addr, kind)
		r.addDependence(t, parent, task, addr, kind)
	}

	if task.npreds == 0 {
		task.State = TaskReady
		if inline {
			// Undeferred: the creating thread runs it now; the
			// prelude calls __kmp_invoke_task on a non-zero return.
			return vm.HostResult{Ret: desc}
		}
		r.pushReady(ts, task)
	} else if serialized {
		// Cannot happen: in a serialized team every sibling completed
		// before this creation.
		panic("omp: undeferred task with pending dependences")
	}
	// An if(0) task with pending dependences falls back to deferred
	// execution (simplification; none of the benchmarks need it).
	return vm.HostResult{Ret: 0}
}

// activeGroup returns the taskgroup new children of task join.
func (r *Runtime) activeGroup(task *Task) *taskgroup {
	if n := len(task.groupStack); n > 0 {
		return task.groupStack[n-1]
	}
	// Descendants created by a task that was itself created into a group
	// belong to that group too (taskgroup waits on descendants).
	return task.group
}

// addDependence runs the per-address dependence state machine and registers
// edges from incomplete predecessors. mutexinoutset is serialized in
// creation order (a documented simplification: the runtime picks an order
// and reports it through OMPT, so mutually-exclusive tasks are ordered in
// the segment graph — yielding the paper's TN on DRB135).
func (r *Runtime) addDependence(t *vm.Thread, parent, task *Task, addr, kind uint64) {
	slot := parent.depMap[addr]
	if slot == nil {
		slot = &depSlot{}
		parent.depMap[addr] = slot
	}
	depend := func(preds []*Task) {
		for _, p := range preds {
			if p == nil || p == task {
				continue
			}
			r.Events.TaskDependence(t, p.ID, task.ID, addr, kind)
			if p.State != TaskCompleted {
				task.npreds++
				p.succs = append(p.succs, task)
			}
		}
	}
	switch kind {
	case ompt.DepIn:
		depend(slot.writers)
		slot.readers = append(slot.readers, task)
	case ompt.DepOut, ompt.DepInout, ompt.DepMutexinoutset:
		depend(slot.writers)
		depend(slot.readers)
		slot.writers = []*Task{task}
		slot.readers = nil
		slot.setKind = kind
	case ompt.DepInoutset:
		if slot.setKind == ompt.DepInoutset && len(slot.readers) == 0 {
			// Join the current inoutset batch: mutually compatible.
			slot.writers = append(slot.writers, task)
		} else {
			depend(slot.writers)
			depend(slot.readers)
			slot.writers = []*Task{task}
			slot.readers = nil
			slot.setKind = ompt.DepInoutset
		}
	default:
		panic(fmt.Sprintf("omp: bad dependence kind %d", kind))
	}
}

// pushReady queues a ready task on a thread's deque and pokes the team.
func (r *Runtime) pushReady(ts *ThreadState, task *Task) {
	task.State = TaskReady
	ts.deque = append(ts.deque, task)
	if reg := task.Region; reg != nil {
		r.wakeTeam(reg)
	}
}

// wakeTeam wakes blocked team members so they re-poll.
func (r *Runtime) wakeTeam(reg *Region) {
	for _, m := range reg.Members {
		if m.T.State == vm.ThreadBlocked {
			m.T.Wake()
		}
	}
}

// findWork pops the caller's deque (LIFO) or steals from a teammate (FIFO).
func (r *Runtime) findWork(ts *ThreadState) *Task {
	if n := len(ts.deque); n > 0 {
		task := ts.deque[n-1]
		ts.deque = ts.deque[:n-1]
		return task
	}
	reg := ts.Team
	if reg == nil {
		return nil
	}
	n := len(reg.Members)
	for i := 1; i < n; i++ {
		r.StealsAttempted++
		if r.DenySteal != nil && r.DenySteal() {
			r.StealsDenied++
			continue
		}
		v := reg.Members[(ts.ThreadNum+i+r.stealCursor)%n]
		if v == ts || len(v.deque) == 0 {
			continue
		}
		task := v.deque[0]
		v.deque = v.deque[1:]
		r.StealsSuccessful++
		r.stealCursor++
		if r.tracing() {
			r.emit(obs.PhaseInstant, ts.T, "steal",
				map[string]any{"task": task.ID, "victim": v.ThreadNum})
		}
		return task
	}
	return nil
}

// hTaskBegin (R0 = descriptor) marks the task running on this thread.
func (r *Runtime) hTaskBegin(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	desc := t.Regs[guest.R0]
	id := m.Mem.Load(desc+TDID, 8)
	task := r.tasksByID[id]
	if task == nil {
		panic(fmt.Sprintf("omp: task_begin on unknown task %d (desc 0x%x)", id, desc))
	}
	task.State = TaskRunning
	ts.taskStack = append(ts.taskStack, ts.cur)
	ts.cur = task
	r.Events.TaskBegin(t, task.ID)
	r.ctrTaskBegin.Inc()
	if r.tracing() {
		r.emit(obs.PhaseBegin, t, "task", map[string]any{"task": task.ID, "fn": task.Fn})
	}
	return vm.HostResult{Ret: desc}
}

// hTaskEnd (R0 = descriptor) finishes the running task. For detached tasks
// completion is deferred to omp_fulfill_event; everyone else completes now,
// releasing dependents, parent waits, and the descriptor (recycled!).
func (r *Runtime) hTaskEnd(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	task := ts.cur
	ts.cur = ts.taskStack[len(ts.taskStack)-1]
	ts.taskStack = ts.taskStack[:len(ts.taskStack)-1]
	r.Events.TaskEnd(t, task.ID)
	r.ctrTaskEnd.Inc()
	if r.tracing() {
		r.emit(obs.PhaseEnd, t, "task", map[string]any{"task": task.ID})
	}
	task.State = TaskFinished
	if task.Flags&ompt.FlagDetached == 0 {
		r.completeTask(ts, task)
	}
	return vm.HostResult{}
}

// completeTask performs the completion side effects.
func (r *Runtime) completeTask(ts *ThreadState, task *Task) {
	if task.State == TaskCompleted {
		return
	}
	task.State = TaskCompleted
	if p := task.Parent; p != nil {
		p.incompleteChildren--
	}
	if g := task.group; g != nil {
		g.incomplete--
	}
	if reg := task.Region; reg != nil {
		reg.incompleteTasks--
		r.wakeTeam(reg)
	} else if task.Parent != nil && task.Parent.creator != nil {
		task.Parent.creator.T.Wake()
	}
	// Release dependents to the completing thread's deque.
	for _, s := range task.succs {
		s.npreds--
		if s.npreds == 0 {
			r.pushReady(ts, s)
		}
	}
	// Recycle the descriptor through the fast pool.
	if task.Desc != 0 {
		r.Pool.Free(task.Desc)
	}
	// Wake the parent's thread if it is waiting on children.
	if p := task.Parent; p != nil && p.inWait && p.creator != nil {
		p.creator.T.Wake()
	}
}

// hFulfillEvent (R0 = task ID) completes a detached task.
func (r *Runtime) hFulfillEvent(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	task := r.tasksByID[t.Regs[guest.R0]]
	if task == nil {
		panic("omp: fulfill on unknown task")
	}
	if task.State == TaskFinished {
		r.completeTask(ts, task)
	} else {
		// Fulfilled before the body finished: completion happens at end.
		task.Flags &^= ompt.FlagDetached
	}
	return vm.HostResult{}
}

// hBarrierPoll implements the team barrier with task draining; returns
// 0 = keep polling (blocked), 1 = barrier done, otherwise a ready task
// descriptor to execute.
func (r *Runtime) hBarrierPoll(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	reg := ts.Team
	if reg == nil {
		return vm.HostResult{Ret: 1}
	}
	bg := &reg.bar
	if !ts.inBarrier {
		ts.inBarrier = true
		ts.barrierStart = bg.gen
		bg.count++
		r.Events.BarrierBegin(t, reg.ID, bg.gen)
	}
	if bg.gen > ts.barrierStart {
		ts.inBarrier = false
		r.Events.BarrierEnd(t, reg.ID, bg.gen)
		return vm.HostResult{Ret: 1}
	}
	if task := r.findWork(ts); task != nil {
		return vm.HostResult{Ret: task.Desc}
	}
	if bg.count == len(reg.Members) && reg.incompleteTasks == 0 {
		bg.gen++
		bg.count = 0
		r.wakeTeam(reg)
		ts.inBarrier = false
		r.Events.BarrierEnd(t, reg.ID, bg.gen)
		return vm.HostResult{Ret: 1}
	}
	return vm.HostResult{Ret: 0, Action: vm.HostBlock, Reason: "barrier"}
}

// hTaskwaitPoll waits for the current task's direct children, draining ready
// tasks meanwhile. Same return protocol as hBarrierPoll.
func (r *Runtime) hTaskwaitPoll(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	cur := ts.cur
	if !cur.inWait {
		cur.inWait = true
		r.Events.TaskWaitBegin(t, cur.ID)
	}
	if cur.incompleteChildren == 0 {
		cur.inWait = false
		r.Events.TaskWaitEnd(t, cur.ID)
		return vm.HostResult{Ret: 1}
	}
	if task := r.findWork(ts); task != nil {
		return vm.HostResult{Ret: task.Desc}
	}
	return vm.HostResult{Ret: 0, Action: vm.HostBlock, Reason: "taskwait"}
}

// hTaskwaitDepsInit starts an OpenMP 5.0 `taskwait depend(...)`: R0 = dep
// array, R1 = ndeps. The waiting task's children matching the dependences
// become the wait set. No dependence state is registered (the construct is
// not a task).
func (r *Runtime) hTaskwaitDepsInit(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	cur := ts.cur
	depArr := t.Regs[guest.R0]
	ndeps := int(t.Regs[guest.R1])
	cur.waitPreds = nil
	seen := map[*Task]bool{}
	add := func(tasks []*Task) {
		for _, p := range tasks {
			if p != nil && !seen[p] {
				seen[p] = true
				cur.waitPreds = append(cur.waitPreds, p)
			}
		}
	}
	for i := 0; i < ndeps; i++ {
		addr := m.Mem.Load(depArr+uint64(i)*16, 8)
		kind := m.Mem.Load(depArr+uint64(i)*16+8, 8)
		slot := cur.depMap[addr]
		if slot == nil {
			continue
		}
		switch kind {
		case ompt.DepIn:
			add(slot.writers)
		default:
			add(slot.writers)
			add(slot.readers)
		}
	}
	return vm.HostResult{}
}

// hTaskwaitDepsPoll waits for the set collected by hTaskwaitDepsInit.
func (r *Runtime) hTaskwaitDepsPoll(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	cur := ts.cur
	done := true
	for _, p := range cur.waitPreds {
		if p.State != TaskCompleted {
			done = false
			break
		}
	}
	if done {
		preds := make([]uint64, len(cur.waitPreds))
		for i, p := range cur.waitPreds {
			preds[i] = p.ID
		}
		cur.waitPreds = nil
		r.Events.TaskWaitDeps(t, cur.ID, preds)
		return vm.HostResult{Ret: 1}
	}
	if task := r.findWork(ts); task != nil {
		return vm.HostResult{Ret: task.Desc}
	}
	return vm.HostResult{Ret: 0, Action: vm.HostBlock, Reason: "taskwait-deps"}
}

// hTaskgroupBegin opens a taskgroup on the current task.
func (r *Runtime) hTaskgroupBegin(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	g := &taskgroup{}
	ts.cur.groupStack = append(ts.cur.groupStack, g)
	r.Events.TaskGroupBegin(t, ts.cur.ID)
	return vm.HostResult{}
}

// hTaskgroupPoll waits for the innermost taskgroup to drain.
func (r *Runtime) hTaskgroupPoll(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	cur := ts.cur
	n := len(cur.groupStack)
	if n == 0 {
		panic("omp: taskgroup end without begin")
	}
	g := cur.groupStack[n-1]
	if g.incomplete == 0 {
		cur.groupStack = cur.groupStack[:n-1]
		r.Events.TaskGroupEnd(t, cur.ID)
		return vm.HostResult{Ret: 1}
	}
	if task := r.findWork(ts); task != nil {
		return vm.HostResult{Ret: task.Desc}
	}
	return vm.HostResult{Ret: 0, Action: vm.HostBlock, Reason: "taskgroup"}
}
