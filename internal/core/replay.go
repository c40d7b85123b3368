package core

// Offline replay: re-executing a stored trace in a fresh process.
//
// In-situ replay (§3.4) rolls the live world back to the last epoch
// checkpoint and re-executes against the in-memory lists. Offline replay has
// no live world and no serialized CPU contexts — what a trace persists is
// exactly the paper's per-thread and per-variable lists (§3.2), plus enough
// thread metadata to rebuild the cast. That is sufficient because the lists
// of *all* epochs, concatenated with per-variable positions rebased
// (record.FlattenEpochs), fully determine a re-execution from program start:
//
//   - program order fixes each thread's sequence, the concatenated variable
//     lists fix every cross-thread interleaving, recordable syscall results
//     are returned from the log, and revocable IO is re-issued against the
//     re-created virtual OS state;
//   - epoch boundaries need no re-enactment: the irrevocable-syscall dance
//     and log-exhaustion stops exist to bound in-situ rollback, and a
//     whole-program replay has nothing to bound;
//   - divergence checking and the randomized re-execution search (§3.5.2)
//     are inherited unchanged — the program-start checkpoint taken before
//     releasing the main thread is a perfectly ordinary rollback target, so
//     a diverged attempt restarts the program exactly like an in-situ retry
//     restarts an epoch.
//
// PrepareReplay builds the primed runtime (callers may still populate the
// virtual OS with the workload's input files), RunReplay drives it, and
// ReplayFromTrace is the one-call convenience wrapper.

import (
	"errors"
	"fmt"

	"time"

	"repro/internal/record"
	"repro/internal/tir"
)

// PrepareReplay builds a runtime primed to re-execute the recorded epochs of
// a trace from program start. The returned runtime has not started: callers
// that need virtual-OS state (input files installed by workload setup) must
// recreate it via rt.OS() before calling RunReplay. Options are interpreted
// as for New, except that recording-side hooks (TraceSink, OnEpochEnd,
// OnReplayMatched) are ignored; Mem, EventCap, VarCap and the allocator
// selection must match the recording run for addresses to reproduce.
// Options.Observers ARE honored — attaching analyzers to the replay path is
// how the replay-time analysis subsystem (internal/analysis) works — with
// the caveat that epoch observers never fire offline (there are no epoch
// boundaries to re-enact).
func PrepareReplay(mod *tir.Module, epochs []*record.EpochLog, opts Options) (*Runtime, error) {
	return prepareReplay(mod, epochs, opts, nil)
}

// PrepareReplayFlat is PrepareReplay for an already flattened trace: callers
// that stream epoch frames through bounded windows (record.Flattener) hand
// over the flattened per-thread/per-variable lists instead of pinning every
// decoded epoch for the runtime's construction. Semantics are identical to
// PrepareReplay over the same epoch range.
func PrepareReplayFlat(mod *tir.Module, fl *record.Flat, opts Options) (*Runtime, error) {
	return prepareReplayFlat(mod, fl, opts, nil)
}

// prepareReplay is PrepareReplay with an optional shadow-table seed: preVars,
// when non-nil, is a checkpoint's creation-ordered shadow table, pre-created
// so the replay assigns exactly the recording's shadow IDs. The IDs matter
// because they are cached inside VM memory (the index word of each
// synchronization variable): a segment whose end image is byte-compared
// against a checkpoint must write the same index values the recording wrote.
// Pre-creating from the per-variable order lists alone is not enough —
// variables first touched by barrier_init or cond_signal never enter an
// order list, yet consume a shadow ID at creation.
func prepareReplay(mod *tir.Module, epochs []*record.EpochLog, opts Options, preVars []VarState) (*Runtime, error) {
	if len(epochs) == 0 {
		return nil, errors.New("core: replay of an empty trace")
	}
	threads, vars, err := record.FlattenEpochs(epochs)
	if err != nil {
		return nil, err
	}
	fl := &record.Flat{
		Threads: threads,
		Vars:    vars,
		Epochs:  int64(len(epochs)),
		Reason:  epochs[len(epochs)-1].Reason,
	}
	return prepareReplayFlat(mod, fl, opts, preVars)
}

func prepareReplayFlat(mod *tir.Module, fl *record.Flat, opts Options, preVars []VarState) (*Runtime, error) {
	if fl == nil || fl.Epochs == 0 {
		return nil, errors.New("core: replay of an empty trace")
	}
	threads, vars := fl.Threads, fl.Vars
	if len(threads) == 0 || len(threads[0].Events) == 0 {
		return nil, errors.New("core: trace has no main-thread events")
	}
	for i, tl := range threads {
		// Whole-trace replay needs dense TIDs (the per-thread list load below
		// indexes the runtime's thread table by slot). FlattenEpochs enforces
		// this on the epoch-slice path; the streamed path is checked here.
		if tl.TID != int32(i) {
			return nil, fmt.Errorf("core: non-dense thread IDs in flattened trace (slot %d holds tid %d)",
				i, tl.TID)
		}
		if tl.TID != 0 && (tl.EntryFn < 0 || int(tl.EntryFn) >= len(mod.Funcs)) {
			return nil, fmt.Errorf("core: trace thread %d has invalid entry function %d",
				tl.TID, tl.EntryFn)
		}
	}
	opts.TraceSink = nil
	opts.OnEpochEnd = nil
	opts.OnReplayMatched = nil
	opts.CheckpointSink = nil
	opts.DisableRecording = false
	rt, err := New(mod, opts)
	if err != nil {
		return nil, err
	}
	rt.offline = true

	// The final epoch's stop reason matters for one check: a trace that ended
	// in a fault must see the same fault again — onTrap treats a trap after a
	// fully consumed list as the matching outcome only under StopFault.
	rt.stopReason = StopReason(fl.Reason)

	// Main thread and the program-start checkpoint, exactly as Run does. Its
	// trampoline starts parked on the start channel; RunReplay releases it.
	main, err := rt.newThread(rt.mod.Entry, 0, false)
	if err != nil {
		return nil, err
	}
	main.cpu.Start(rt.mod.Entry, nil)
	rt.epochSeq = 1
	rt.stats.Epochs = fl.Epochs
	rt.epochStart = time.Now() //ir:wallclock epoch timeline telemetry
	rt.takeCheckpoint()
	go main.trampoline()
	// Once any trampoline is live, error paths must reap it.
	fail := func(err error) (*Runtime, error) {
		rt.shutdown()
		return nil, err
	}

	// Pre-create every other recorded thread in embryo state, after the
	// checkpoint so that a divergence rollback reverts it to an embryo again
	// (the !inCkpt arm of rollbackAndReplay). Its replayed creation event
	// releases it, as for threads born during an in-situ dead epoch (§3.5.1).
	for _, tl := range threads[1:] {
		t, err := rt.newThread(int(tl.EntryFn), 0, true)
		if err != nil {
			return fail(err)
		}
		go t.trampoline()
		if t.id != tl.TID {
			return fail(fmt.Errorf("core: trace thread %d materialized as %d", tl.TID, t.id))
		}
	}

	// Load the concatenated lists. Shadow variables are pre-created so their
	// recorded orders are in place before first use; varFor finds them by
	// address and rewrites the in-memory index word on demand. A checkpoint
	// shadow table, when provided, seeds creation order (and thereby IDs)
	// exactly as the recording assigned them.
	if err := rt.seedShadows(preVars); err != nil {
		return fail(err)
	}
	rt.mu.Lock()
	for i := range threads {
		rt.threads[i].list = record.LoadThreadList(threads[i].Events)
	}
	rt.mu.Unlock()
	for _, vl := range vars {
		s := rt.replayVarFor(vl.Addr)
		s.mu.Lock()
		s.order = record.LoadVarList(vl.Order)
		s.mu.Unlock()
	}
	return rt, nil
}

// seedShadows pre-creates the shadow table from a checkpoint's
// creation-ordered Vars list, verifying the IDs come out aligned (entries 0
// and 1 are the runtime pseudo-variables every runtime pre-allocates).
func (rt *Runtime) seedShadows(vars []VarState) error {
	if len(vars) == 0 {
		return nil
	}
	if len(vars) < 2 || vars[0].Addr != createVarAddr || vars[1].Addr != superVarAddr {
		return errors.New("core: checkpoint shadow table lacks the runtime pseudo-variables")
	}
	for i := range vars {
		sv := rt.replayVarFor(vars[i].Addr)
		if int(sv.id) != i {
			return fmt.Errorf("core: checkpoint shadow %#x materialized as id %d, want %d",
				vars[i].Addr, sv.id, i)
		}
	}
	return nil
}

// Shutdown reaps a runtime's thread goroutines. Run and RunReplay shut down
// automatically on completion; callers that abandon a PrepareReplay runtime
// before RunReplay (e.g. a failed OS setup) must call it themselves.
func (rt *Runtime) Shutdown() { rt.shutdown() }

// replayVarFor resolves (or pre-creates) the shadow for addr without touching
// VM memory — memory is still at its program-start state and varFor caches
// the index word lazily on first use during the replay itself.
func (rt *Runtime) replayVarFor(addr uint64) *syncVar {
	switch addr {
	case createVarAddr:
		return rt.createVar
	case superVarAddr:
		return rt.superVar
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s, ok := rt.shadows[addr]; ok {
		return s
	}
	return rt.newSyncVarLocked(addr)
}

// RunReplay re-executes the loaded trace to completion through the ordinary
// divergence-checking replay path, retrying from program start (with the
// §3.5.2 randomized delays, if enabled) until the recorded schedule is
// reproduced or Options.MaxReplays attempts are exhausted. On a match it
// returns the replayed report; a trace that recorded a fault reproduces the
// fault, which is returned as the error alongside the report.
func (rt *Runtime) RunReplay() (*Report, error) {
	if !rt.offline {
		return nil, errors.New("core: RunReplay on a runtime not built by PrepareReplay")
	}
	main := rt.thread(0)
	if main == nil {
		return nil, errors.New("core: replay runtime has no main thread")
	}
	// In-situ replay inherits the paper's unlimited default search; offline a
	// runaway search has no user watching it, so an unset bound gets a large
	// finite default and surfaces as an error instead of spinning forever.
	maxReplays := rt.opts.MaxReplays
	if maxReplays == 0 {
		maxReplays = 256
	}
	rt.divMu.Lock()
	rt.attempt = 1
	rt.divMu.Unlock()
	rt.stats.Replays++
	if rt.segStart != nil {
		// Mid-trace segment: seed the world from the restored checkpoint and
		// resume every thread at its checkpointed context — the same path a
		// divergence retry takes, pointed at the segment start.
		rt.rollbackAndReplay()
	} else {
		rt.setPhase(phReplay)
		// Mark main running before releasing it so quiescence detection
		// cannot observe an all-parked world in the hand-off window.
		main.setState(tsRunning)
		main.startCh <- startMsg{kind: smStart}
	}

	attempt := 1
	for {
		rt.awaitQuiescence()
		// A caller-interrupted replay stops here: interception sites have
		// already unwound the running threads (intercept returns errShutdown
		// once the interrupt latches), so quiescence arrives promptly.
		if err := rt.pollInterrupt(); err != nil {
			rt.shutdown()
			return nil, fmt.Errorf("core: replay interrupted: %w", err)
		}
		if rt.replayStalled() {
			// Quiescent with unreplayed events but no thread-flagged
			// divergence: on an oversubscribed host this is usually a
			// runnable thread the scheduler has not run yet, not a wrong
			// schedule. A false positive here is expensive offline — the
			// retry re-executes the whole segment under delay injection — so
			// give the scheduler a grace period before declaring divergence.
			for wait := 0; wait < 200 && rt.replayStalled(); wait++ {
				if rt.pollInterrupt() != nil {
					break // the check below reports the cause
				}
				time.Sleep(500 * time.Microsecond) //ir:wallclock divergence grace-period spacing
				rt.awaitQuiescence()
			}
			if err := rt.pollInterrupt(); err != nil {
				rt.shutdown()
				return nil, fmt.Errorf("core: replay interrupted: %w", err)
			}
		}
		if rt.replayMatched() {
			rt.stats.MatchedReplays++
			rt.stats.LastReplayAttempts = attempt
			break
		}
		if attempt >= maxReplays {
			info := rt.DivergenceInfo()
			rt.shutdown()
			return nil, fmt.Errorf("core: offline replay diverged %d times without matching: %s",
				attempt, info)
		}
		attempt++
		rt.stats.Replays++
		rt.divMu.Lock()
		rt.attempt = attempt
		rt.diverged = false
		rt.divMu.Unlock()
		rt.rollbackAndReplay()
	}

	// Stitching check for segment replays: the matched schedule must also
	// land on the next checkpoint's exact memory image and output budget.
	if err := rt.verifySegmentEnd(); err != nil {
		rt.shutdown()
		return nil, err
	}

	rep := &Report{
		Exit:   main.exitVal,
		Stats:  rt.stats,
		Output: rt.Output(),
	}
	_, ferr := rt.FaultedThread()
	rt.shutdown()
	return rep, ferr
}

// ReplayFromTrace loads a recorded epoch sequence and re-executes it from
// program start: PrepareReplay + optional OS setup + RunReplay. setup, when
// non-nil, runs before execution and recreates environment the recording run
// had (typically the workload's input files).
func ReplayFromTrace(mod *tir.Module, epochs []*record.EpochLog, opts Options, setup func(*Runtime) error) (*Report, error) {
	rt, err := PrepareReplay(mod, epochs, opts)
	if err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(rt); err != nil {
			rt.shutdown()
			return nil, err
		}
	}
	return rt.RunReplay()
}
