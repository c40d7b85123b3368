package core

import (
	"fmt"
	"time"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/record"
)

// Runtime phases. Transitions:
//
//	phRecord -> phStopping            (epoch-end trigger, §3.3)
//	phStopping -> phRecord            (proceed: housekeeping + checkpoint)
//	phStopping -> phRollback          (replay decision)
//	phRollback -> phReplay            (state restored, threads resumed, §3.4)
//	phReplay -> phReplayStopping      (divergence or replay complete)
//	phReplayStopping -> phRollback    (divergence: search again, §3.5.2)
//	phReplayStopping -> phRecord      (matched: proceed to next epoch)
//	any -> phShutdown                 (program end)
const (
	phRecord int32 = iota
	phStopping
	phReplay
	phReplayStopping
	phRollback
	phShutdown
)

// StopReason explains why an epoch ended.
type StopReason int

const (
	// StopNone: no stop in progress.
	StopNone StopReason = iota
	// StopLogFull: a preallocated event list was exhausted (§3.2).
	StopLogFull
	// StopIrrevocable: a thread reached an irrevocable system call (§2.2.3).
	StopIrrevocable
	// StopProgramEnd: main returned; the final epoch is closing.
	StopProgramEnd
	// StopFault: a thread trapped (SIGSEGV analogue); tools may replay with
	// watchpoints or hand control to the debugger (§4.3).
	StopFault
	// StopTool: a tool or the user explicitly requested an epoch end.
	StopTool
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopLogFull:
		return "log-full"
	case StopIrrevocable:
		return "irrevocable-syscall"
	case StopProgramEnd:
		return "program-end"
	case StopFault:
		return "fault"
	case StopTool:
		return "tool-request"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Decision is a tool's verdict at an epoch boundary.
type Decision int

const (
	// Proceed continues to the next epoch (or terminates, at program end).
	Proceed Decision = iota
	// Replay rolls back and re-executes the last epoch (Figure 2).
	Replay
	// Abort terminates the program immediately.
	Abort
)

// EpochEndInfo is passed to the OnEpochEnd hook.
type EpochEndInfo struct {
	Epoch  int64
	Reason StopReason
	// TID is the thread that triggered the stop.
	TID int32
	// Fault is the trap error when Reason is StopFault.
	Fault error
}

// checkpoint is everything needed to roll the world back to an epoch
// beginning (§3.1): the memory snapshot, allocator metadata, file positions,
// per-thread CPU contexts and blocking situations, and shadow
// synchronization state.
type checkpoint struct {
	epoch     int64
	snap      *mem.Snapshot
	allocSnap heap.AllocSnapshot
	positions map[int64]int64
	threads   map[int32]threadCkpt
	varState  map[int32]varCkpt
}

type threadCkpt struct {
	ctx    *interp.Context
	exited bool
	joined bool
	block  blockInfo
}

func (rt *Runtime) phase() int32         { return rt.ph.Load() }
func (rt *Runtime) phaseIs(p int32) bool { return rt.ph.Load() == p }

func (rt *Runtime) setPhase(p int32) {
	rt.ph.Store(p)
	rt.phaseCh.Broadcast()
}

// requestStop asks the world to stop for an epoch end; only the first
// request per epoch wins (that thread is the paper's coordinator trigger).
func (rt *Runtime) requestStop(reason StopReason, tid int32) bool {
	rt.stopMu.Lock()
	if rt.ph.Load() != phRecord {
		rt.stopMu.Unlock()
		return false
	}
	rt.stopReason = reason
	rt.stopTID = tid
	rt.ph.Store(phStopping)
	rt.stopMu.Unlock()
	rt.phaseCh.Broadcast()
	select {
	case rt.monitorCh <- struct{}{}:
	default:
	}
	return true
}

// requestReplayStop interrupts a replay (divergence detected).
func (rt *Runtime) requestReplayStop() bool {
	rt.stopMu.Lock()
	defer rt.stopMu.Unlock()
	if rt.ph.Load() != phReplay {
		return false
	}
	rt.ph.Store(phReplayStopping)
	rt.phaseCh.Broadcast()
	return true
}

// noteDivergence records that a replaying thread attempted an action that
// does not match its recorded next event (§3.5.2) and interrupts the replay.
func (rt *Runtime) noteDivergence(t *Thread, kind record.Kind, varAddr uint64, got *record.Event) {
	rt.divMu.Lock()
	if !rt.diverged {
		rt.diverged = true
		rt.divInfo = fmt.Sprintf("thread %d attempted %v on %#x, recorded %v",
			t.id, kind, varAddr, got)
	}
	rt.stats.Divergences++
	rt.divMu.Unlock()
	rt.requestReplayStop()
}

// onTrap handles a trap (memory fault, abort, assertion) from a thread.
func (rt *Runtime) onTrap(t *Thread, err error) {
	switch rt.phase() {
	case phReplay, phReplayStopping:
		if rt.stopReason == StopFault && t.list.Replayed() {
			// The original epoch ended with this thread's fault; trapping
			// again after replaying every event is the *matching* outcome.
			return
		}
		rt.noteDivergence(t, 0, 0, nil)
	default:
		rt.errMu.Lock()
		if rt.progErr == nil {
			rt.progErr = err
		}
		rt.errMu.Unlock()
		rt.requestStop(StopFault, t.id)
	}
}

// replayAttempt returns the current re-execution attempt (0 = recording).
func (rt *Runtime) replayAttempt() int {
	rt.divMu.Lock()
	defer rt.divMu.Unlock()
	return rt.attempt
}

// monitor is the coordinator: it owns quiescence detection, checkpointing,
// rollback, and the proceed/replay decision at each epoch boundary. The
// paper assigns this role to the triggering application thread (§3.3); a
// dedicated goroutine is behaviourally equivalent and keeps application
// threads free of coordinator state.
func (rt *Runtime) monitor() {
	defer close(rt.done)
	for { //ir:nopoll woken by monitorCh/shutdownCh; shutdown is the cancellation path
		select {
		case <-rt.monitorCh:
		case <-rt.shutdownCh:
			rt.shutdown()
			return
		}
		qs := time.Now() //ir:wallclock quiescence latency telemetry
		rt.awaitQuiescence()
		rt.observeQuiescence(qs)
		if done := rt.handleEpochEnd(); done {
			rt.shutdown()
			return
		}
	}
}

// observeQuiescence accounts one completed quiescence wait that began at
// start: cumulative stats, the latency histogram, and the interval the next
// epoch span records as its quiescence child. Monitor-goroutine only.
func (rt *Runtime) observeQuiescence(start time.Time) {
	rt.qStart, rt.qEnd = start, time.Now() //ir:wallclock quiescence latency telemetry
	d := rt.qEnd.Sub(rt.qStart)
	rt.stats.QuiescenceNS += d.Nanoseconds()
	obs.CoreQuiescence.Observe(d.Seconds())
}

// awaitQuiescence blocks until no thread is running and the world has been
// stable across consecutive observations — the "all threads have reached a
// quiescent state" condition of §2.1/§3.3. Threads blocked on
// synchronization count as stopped: with every other thread parked, nothing
// can wake them.
func (rt *Runtime) awaitQuiescence() {
	// Stability must hold across several spaced observations, not one: on an
	// oversubscribed host a runnable thread can sit unscheduled (still
	// tsBlocked) past a single 50µs window, and declaring a stall then would
	// send a healthy replay into a spurious rollback.
	const confirmations = 4
	stable := 0
	a1 := rt.activity.Load()
	for { //ir:nopoll interrupt parks guest threads at gated points; quiescence then completes and ends this wait
		if !rt.noneRunning() {
			stable = 0
			time.Sleep(100 * time.Microsecond) //ir:wallclock stability-window spacing between host-time observations
			a1 = rt.activity.Load()
			continue
		}
		time.Sleep(50 * time.Microsecond) //ir:wallclock stability-window spacing between host-time observations
		if a2 := rt.activity.Load(); a2 != a1 || !rt.noneRunning() {
			stable = 0
			a1 = rt.activity.Load()
			continue
		}
		if stable++; stable >= confirmations {
			return
		}
	}
}

func (rt *Runtime) noneRunning() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t == nil {
			continue
		}
		if s := t.state.Load(); s == tsRunning {
			return false
		}
	}
	return true
}

// handleEpochEnd runs after quiescence: consult tools, then proceed, replay
// (possibly many times, §3.5.2), or terminate. Returns true when the
// program is over.
func (rt *Runtime) handleEpochEnd() bool {
	// A caller-interrupted run terminates at this boundary: the final
	// epoch's log is deliberately not flushed (a canceled recording is an
	// incomplete trace, and the store reports it as such).
	if err := rt.pollInterrupt(); err != nil {
		rt.errMu.Lock()
		if rt.progErr == nil {
			rt.progErr = fmt.Errorf("core: run interrupted: %w", err)
		}
		rt.errMu.Unlock()
		return true
	}
	// stopReason/stopTID are written by requestStop under stopMu from
	// arbitrary goroutines (tools call RequestEpochEnd); take the lock for
	// the read — the captured reason is persisted into trace files and must
	// be the one whose stop this boundary is handling.
	rt.stopMu.Lock()
	reason := rt.stopReason
	stopTID := rt.stopTID
	rt.stopMu.Unlock()
	info := EpochEndInfo{Epoch: rt.epochSeq, Reason: reason, TID: stopTID, Fault: rt.progErr}

	// The epoch's timeline span covers the whole epoch — begin-of-epoch
	// through the end of this boundary's processing (quiescence, tool
	// decisions, any rollbacks) — so a recording timeline shows where the
	// wall time of each epoch went.
	bnd := rt.opts.Span.ChildAt(fmt.Sprintf("epoch %d", rt.epochSeq), rt.epochStart)
	bnd.Record("quiescence", rt.qStart, rt.qEnd)
	rollbacks := 0
	defer func() {
		obs.CoreEpoch.Observe(time.Since(rt.epochStart).Seconds()) //ir:wallclock epoch latency telemetry
		bnd.SetAttr("reason", reason.String())
		if rollbacks > 0 {
			bnd.SetAttr("rollbacks", fmt.Sprintf("%d", rollbacks))
		}
		bnd.End()
		rt.epochStart = time.Now() //ir:wallclock epoch timeline telemetry
	}()

	decision := rt.epochDecision(
		func() Decision {
			if rt.opts.OnEpochEnd == nil {
				return Proceed
			}
			return rt.opts.OnEpochEnd(rt, info)
		},
		func(o EpochObserver) Decision { return o.OnEpochEnd(rt, info) },
	)

	rt.divMu.Lock()
	rt.attempt = 0
	rt.divMu.Unlock()

	for decision == Replay {
		rt.divMu.Lock()
		rt.attempt++
		attempt := rt.attempt
		rt.diverged = false
		rt.divMu.Unlock()
		if rt.opts.MaxReplays > 0 && attempt > rt.opts.MaxReplays {
			decision = Abort
			rt.errMu.Lock()
			if rt.progErr == nil {
				rt.progErr = fmt.Errorf("core: no matching schedule within %d replays", rt.opts.MaxReplays)
			}
			rt.errMu.Unlock()
			break
		}
		rt.stats.Replays++
		rollbacks = attempt
		obs.CoreRollbacks.Inc()
		rbStart := time.Now() //ir:wallclock rollback timeline telemetry
		rt.rollbackAndReplay()
		qs := time.Now() //ir:wallclock quiescence latency telemetry
		rt.awaitQuiescence()
		rt.observeQuiescence(qs)
		bnd.Record(fmt.Sprintf("rollback %d", attempt), rbStart, time.Now()) //ir:wallclock rollback timeline telemetry

		if rt.replayMatched() {
			rt.stats.MatchedReplays++
			rt.stats.LastReplayAttempts = attempt
			decision = rt.epochDecision(
				func() Decision {
					if rt.opts.OnReplayMatched == nil {
						return Proceed
					}
					return rt.opts.OnReplayMatched(rt, attempt)
				},
				func(o EpochObserver) Decision { return o.OnReplayMatched(rt, attempt) },
			)
		}
		// A divergent replay loops with decision still Replay.
	}

	switch decision {
	case Abort:
		return true
	default: // Proceed
		if err := rt.flushTraceSink(reason); err != nil {
			rt.errMu.Lock()
			if rt.progErr == nil {
				rt.progErr = fmt.Errorf("core: trace sink: %w", err)
			}
			rt.errMu.Unlock()
			return true
		}
		if reason == StopProgramEnd || reason == StopFault {
			return true
		}
		if rt.mainExited() {
			// Main's own exit event can fill the event list, making the
			// StopLogFull request win the stop race and drop main's
			// StopProgramEnd (requestStop accepts one trigger per epoch).
			// Main's exit is in the epoch just flushed and every thread is
			// parked — beginning a new epoch would wait forever.
			return true
		}
		if err := rt.beginEpoch(); err != nil {
			rt.errMu.Lock()
			if rt.progErr == nil {
				rt.progErr = err
			}
			rt.errMu.Unlock()
			return true
		}
		return false
	}
}

// mainExited reports whether thread 0 has run to completion. Called at an
// epoch boundary (world quiescent), where main's state is stable.
func (rt *Runtime) mainExited() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t := rt.threads[0]
	return t != nil && t.state.Load() == tsExited
}

// flushTraceSink counts the closing epoch's events and hands its finalized
// log to the trace sink, if any. It runs while the world is quiescent,
// after any tool-driven replays matched (a matched replay leaves the lists
// holding exactly the recorded events) and before beginEpoch's
// housekeeping clears them.
func (rt *Runtime) flushTraceSink(reason StopReason) error {
	if rt.opts.DisableRecording {
		return nil
	}
	rt.stats.EventsRecorded += rt.epochEventCount()
	if rt.opts.TraceSink == nil {
		return nil
	}
	return rt.opts.TraceSink(rt.captureEpochLog(reason))
}

// epochEventCount sums the closing epoch's per-thread list lengths over the
// threads captureEpochLog would include.
func (rt *Runtime) epochEventCount() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var n int64
	for _, t := range rt.threads {
		if t != nil && t.state.Load() != tsDead {
			n += int64(t.list.Len())
		}
	}
	return n
}

// captureEpochLog deep-copies the epoch's per-thread and per-variable lists
// into an encode-stable record.EpochLog. Reclaimed (dead) threads cannot
// carry events from this epoch and are skipped; every other thread is
// included even with an empty list, because the offline replayer needs each
// thread's entry function to pre-create it.
func (rt *Runtime) captureEpochLog(reason StopReason) *record.EpochLog {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ep := &record.EpochLog{Epoch: rt.epochSeq, Reason: int32(reason)}
	for _, t := range rt.threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		ep.Threads = append(ep.Threads, record.ThreadLog{
			TID:     t.id,
			EntryFn: int32(t.entryFn),
			Events:  append([]record.Event(nil), t.list.Events()...),
		})
	}
	for _, s := range rt.shadowList() {
		s.mu.Lock()
		if s.order.Len() > 0 {
			ep.Vars = append(ep.Vars, record.VarLog{
				Addr:  s.addr,
				Order: append([]int32(nil), s.order.Order()...),
			})
		}
		s.mu.Unlock()
	}
	return ep
}

// replayStalled probes — without flagging divergence — whether the quiescent
// world still holds unreplayed events while no thread observed a mismatch:
// the state that is either a genuinely stuck schedule or, on an
// oversubscribed host, a runnable thread the scheduler has not run yet.
// Offline replay re-confirms a stall across a grace period before letting
// replayMatched turn it into a divergence.
func (rt *Runtime) replayStalled() bool {
	rt.divMu.Lock()
	diverged := rt.diverged
	rt.divMu.Unlock()
	if diverged {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		if !t.list.Replayed() {
			return true
		}
	}
	return false
}

// replayMatched reports whether the finished re-execution reproduced the
// recorded schedule: no divergence was flagged and every thread consumed its
// entire per-thread list (§3.5.2).
func (rt *Runtime) replayMatched() bool {
	rt.divMu.Lock()
	diverged := rt.diverged
	rt.divMu.Unlock()
	if diverged {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		if !t.list.Replayed() {
			rt.divMu.Lock()
			rt.diverged = true
			rt.divInfo = fmt.Sprintf("thread %d stalled with %d unreplayed events",
				t.id, t.list.Len())
			rt.stats.Divergences++
			rt.divMu.Unlock()
			return false
		}
	}
	return true
}

// beginEpoch performs §3.1: housekeeping (deferred syscalls, reclamation of
// joined threads, log reset), then checkpoints memory, file positions,
// allocator metadata, shadow synchronization state, and every thread's
// context — persisting the checkpoint through the configured sink at the
// configured interval. The world resumes recording afterwards.
func (rt *Runtime) beginEpoch() error {
	rt.drainDeferred()
	rt.reclaimJoined()
	rt.clearLogs()
	rt.epochSeq++
	rt.stats.Epochs++
	rt.takeCheckpoint()
	if rt.checkpointDue() {
		// Export while still quiescent: the VFS capture and the shared
		// snapshot must not race resumed threads.
		if err := rt.opts.CheckpointSink(rt.captureCheckpoint()); err != nil {
			return fmt.Errorf("core: checkpoint sink: %w", err)
		}
	}
	rt.stopMu.Lock()
	rt.stopReason = StopNone
	rt.stopMu.Unlock()
	rt.setPhase(phRecord)
	return nil
}

// takeCheckpoint captures the rollback state for the opening epoch.
func (rt *Runtime) takeCheckpoint() {
	ck := &checkpoint{
		epoch:     rt.epochSeq,
		snap:      rt.mem.Snapshot(),
		allocSnap: rt.alloc.Snapshot(),
		positions: rt.os.Positions(),
		threads:   make(map[int32]threadCkpt),
		varState:  make(map[int32]varCkpt),
	}
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	shadows := rt.shadowList()
	rt.mu.Unlock()
	for _, t := range threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		tc := threadCkpt{exited: t.state.Load() == tsExited, joined: t.joined, block: t.block}
		if !tc.exited {
			tc.ctx = t.cpu.GetContext()
		}
		ck.threads[t.id] = tc
	}
	for _, s := range shadows {
		ck.varState[s.id] = s.checkpoint()
	}
	rt.ckpt = ck
}

// rollbackAndReplay implements §3.4: unwind every thread to its trampoline,
// restore memory, allocator, file positions, shadow state and list cursors,
// then resume each thread from its checkpointed context for re-execution.
func (rt *Runtime) rollbackAndReplay() {
	// 1. Unwind: every thread leaves its hook and parks at its trampoline.
	rt.setPhase(phRollback)
	rt.awaitAllUnwound()

	// 2. Restore shared state while every thread is parked.
	if rt.offline {
		// An offline retry restarts the whole program; discard the diverged
		// attempt's re-emitted output so a matched attempt's output is whole.
		rt.outMu.Lock()
		rt.outBuf.Reset()
		rt.outMu.Unlock()
	}
	rt.clearDeferred()
	rt.mem.Restore(rt.ckpt.snap)
	rt.alloc.Restore(rt.ckpt.allocSnap)
	rt.os.RestorePositions(rt.ckpt.positions)
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	shadows := rt.shadowList()
	rt.mu.Unlock()
	for _, s := range shadows {
		if st, ok := rt.ckpt.varState[s.id]; ok {
			s.restore(st)
		} else {
			// Variable first used during the dead epoch: reset wholesale.
			s.restore(varCkpt{holder: -1})
		}
	}
	for _, t := range threads {
		if t == nil {
			continue
		}
		t.list.ResetReplay()
		t.faulted = nil
	}

	// The abandoned attempt's observations are about to be re-executed;
	// stateful observers discard them while every thread is still parked.
	rt.notifyReset()

	// 3. Resume. Threads present in the checkpoint are restored to their
	// contexts (or re-parked as exited); threads born during the dead epoch
	// become embryos again and wait for their replayed create event.
	rt.setPhase(phReplay)
	for _, t := range threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		tc, inCkpt := rt.ckpt.threads[t.id]
		switch {
		case !inCkpt:
			// Born during the dead epoch. Its creator marked it running
			// before handing it its start message (threadCreate), so
			// awaitAllUnwound above could not pass until the message was
			// consumed and the thread unwound — the start channel is
			// empty and the thread is parked at its trampoline.
			t.setState(tsEmbryo)
		case tc.exited:
			t.joined = tc.joined
			// Mark the thread running before handing it its message: a thread
			// with an unprocessed resume is not quiescent, and quiescence
			// detection observing the hand-off window would otherwise declare
			// a stalled replay and start a second rollback whose send then
			// deadlocks against the undrained one-slot start channel.
			t.setState(tsRunning)
			t.startCh <- startMsg{kind: smParkExited}
		default:
			t.joined = tc.joined
			t.setState(tsRunning)
			t.startCh <- startMsg{kind: smResume, ctx: tc.ctx, block: tc.block}
		}
	}
}

// awaitAllUnwound blocks until every live thread is parked at its trampoline
// (or is an embryo / dead).
func (rt *Runtime) awaitAllUnwound() {
	for { //ir:nopoll rollback and interrupt both park every thread at its trampoline, which satisfies this wait
		ready := true
		rt.mu.Lock()
		for _, t := range rt.threads {
			if t == nil {
				continue
			}
			switch t.state.Load() {
			case tsUnwound, tsEmbryo, tsDead:
			default:
				ready = false
			}
			if !ready {
				break
			}
		}
		rt.mu.Unlock()
		if ready {
			return
		}
		time.Sleep(50 * time.Microsecond) //ir:wallclock spacing between unwind observations
	}
}

// reclaimJoined releases joined, exited threads at the epoch boundary (§3.1:
// "joined threads will be reclaimed").
func (rt *Runtime) reclaimJoined() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t == nil {
			continue
		}
		if t.state.Load() == tsExited && t.joined {
			t.setState(tsDead)
			close(t.startCh)
		}
	}
}

// clearLogs discards the previous epoch's events (§3.1 housekeeping).
func (rt *Runtime) clearLogs() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t != nil {
			t.list.Clear()
		}
	}
	for _, s := range rt.shadowList() {
		s.mu.Lock()
		s.order.Clear()
		s.mu.Unlock()
	}
}

// shutdown terminates every thread goroutine and finalizes the runtime.
func (rt *Runtime) shutdown() {
	rt.setPhase(phShutdown)
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	for _, t := range threads {
		if t == nil {
			continue
		}
		if t.state.Load() != tsDead {
			func() {
				defer func() { recover() }() // startCh may already be closed
				close(t.startCh)
			}()
		}
	}
	for _, t := range threads {
		if t != nil {
			<-t.doneCh
		}
	}
}
