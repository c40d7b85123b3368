package main

// insitu-replay: the paper's §4 in-situ debugging path. dedup (allocation
// heavy) carries the §5.2 implanted one-byte heap overflow at the end of
// main and is recorded in memory with the overflow and use-after-free
// detectors attached. A small event list makes a recording cross about 150
// log-full boundaries; at the seed-chosen ones a rollback observer, modelled
// on the §4.3 rollback command, arms up to mem.MaxWatchpoints watchpoints and
// asks for an in-situ replay. The memory layer runs in the restore
// direction here, and canary/quarantine scans and interpreter watchpoints
// are on the path; no trace store is touched.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/tir"
	"repro/internal/workloads"
)

const (
	// insituIters and insituEventCap size dedup so one recording takes a
	// few seconds and crosses about 150 log-full boundaries.
	insituIters    = 140
	insituEventCap = 16
	// insituMaxReplays bounds the divergence search of each in-situ replay;
	// a replay that does not match within it fails the recording.
	insituMaxReplays = 16
)

type insituWL struct {
	cfg  config
	spec workloads.Spec
	// mod carries the implanted overflow; clean is the module without it,
	// recorded instead when tampering.
	mod, clean *tir.Module
	ref        *core.Report
	nativeS    float64
	// watch are the addresses each replay watches: the application's shared
	// lock-protected cells, written on every critical section.
	watch    []uint64
	recorded int
}

func setupInsitu(cfg config) (workload, checks, error) {
	var c checks
	spec, clean, err := buildApp("dedup", insituIters, cfg.scale)
	if err != nil {
		return nil, c, err
	}
	mod := workloads.ImplantOverflow(clean)
	ref, native, err := runNative(spec, mod, cfg.seed)
	if err != nil {
		return nil, c, fmt.Errorf("native run: %w", err)
	}
	gi := mod.GlobalIndex("shared")
	if gi < 0 {
		return nil, c, fmt.Errorf("dedup has no shared global")
	}
	base := interp.GlobalAddr(mod, gi)
	var watch []uint64
	for off := int64(0); off+8 <= mod.Globals[gi].Size && len(watch) < mem.MaxWatchpoints; off += 8 {
		watch = append(watch, base+uint64(off))
	}
	return &insituWL{cfg: cfg, spec: spec, mod: mod, clean: clean, ref: ref,
		nativeS: native.Seconds(), watch: watch}, c, nil
}

func (w *insituWL) close() {}

func (w *insituWL) run(rec *obs.Recorder, d time.Duration, hs *heapSampler) *phase {
	ph := &phase{}
	s := series{}
	start := time.Now()
	for !timeUp(start, d, ph.attempted) {
		r := w.recordOnce(rec, hs)
		ph.add(r.checks)
		ph.opMS = append(ph.opMS, r.replayMS...)
		ph.busy += time.Duration(r.recordS * 1e9)
		if r.checks.failed > 0 {
			continue
		}
		s.add("record_s", r.recordS)
		s.addRuntime(r.stats, r.snapMS, r.restoreMS)
		s.add("detect.scan_s", r.scanS)
		s.add("detect.root_causes", float64(r.rootCauses))
		s.add("interp.watch_hits", float64(r.watchHits))
	}
	ph.wall = time.Since(start)
	ph.setMedians(s)
	ph.addNamed("record_s", "s", median(s["record_s"]), len(s["record_s"]))
	ph.addNamed("insitu_replay_p50_ms", "ms", median(ph.opMS), len(ph.opMS))
	ph.addNamed("insitu_replay_p90_ms", "ms", percentile(ph.opMS, 0.9), len(ph.opMS))
	ph.setLayer("interp.native_s", w.nativeS)
	ph.setLayer("record.overhead_x", median(s["record_s"])/w.nativeS)
	return ph
}

// insituRecording is one recording's measurements; its checks count each
// requested replay and the recording's own outcome.
type insituRecording struct {
	checks
	replayMS          []float64
	recordS, scanS    float64
	snapMS, restoreMS float64
	rootCauses        int
	watchHits         int
	stats             core.Stats
}

func (w *insituWL) recordOnce(rec *obs.Recorder, hs *heapSampler) *insituRecording {
	w.recorded++
	seed := w.cfg.seed*1000 + int64(w.recorded)
	r := &insituRecording{}
	root := rec.Start("bench.recording")
	defer root.End()
	runSpan := root.Child("core.Run")

	det := detect.New(detect.Config{Overflow: true, UseAfterFree: true})
	rb := &rollbacker{rng: rand.New(rand.NewSource(seed)), watch: w.watch, span: runSpan}
	scan := &timedObserver{inner: det, span: runSpan}
	mod := w.mod
	if w.cfg.tamper {
		mod = w.clean
	}
	// The rollback observer goes first: the detector drains watchpoint hits
	// in its own OnReplayMatched.
	rt, err := core.New(mod, core.Options{
		Seed: seed, EventCap: insituEventCap, MaxReplays: insituMaxReplays,
		Observers: []core.Observer{rb, scan}, Span: runSpan,
	})
	if err != nil {
		r.fail(err)
		return r
	}
	if err := det.Attach(rt); err != nil {
		r.fail(err)
		return r
	}
	w.spec.SetupOS(rt.OS())
	runStart := time.Now()
	rep, runErr := rt.Run()
	r.recordS = time.Since(runStart).Seconds()
	runSpan.End()

	r.replayMS = rb.latMS
	r.scanS = scan.busy.Seconds()
	r.watchHits = rb.hits
	for i := 0; i < rb.requested; i++ {
		if i < len(rb.latMS) {
			r.pass()
		} else {
			r.fail(fmt.Errorf("recording %d: in-situ replay %d did not match within %d attempts", w.recorded, i+1, insituMaxReplays))
		}
	}
	if runErr != nil {
		r.fail(fmt.Errorf("recording %d: %w", w.recorded, runErr))
		return r
	}
	r.stats = rt.StatsSnapshot()
	hs.untimed(func() {
		r.snapMS, r.restoreMS = timeSnapshot(rt, root)
		rep2 := det.Report()
		r.rootCauses = len(rep2.RootCauses)
		r.check(w.verify(rep, rep2))
	})
	return r
}

// verify checks a recording's outcome: the native run's exit and output,
// and exactly the implanted overflow, blamed on main with a stack.
func (w *insituWL) verify(rep *core.Report, dr detect.Report) error {
	if rep.Exit != w.ref.Exit || rep.Output != w.ref.Output {
		return fmt.Errorf("recording %d: exit %d, want %d as run natively", w.recorded, rep.Exit, w.ref.Exit)
	}
	if len(dr.Violations) != 1 || dr.Violations[0].UseFree {
		return fmt.Errorf("recording %d: want exactly the implanted overflow, detector reported %d violation(s)",
			w.recorded, len(dr.Violations))
	}
	if len(dr.RootCauses) != 1 || len(dr.RootCauses[0].Hits) == 0 || len(dr.RootCauses[0].Hits[0].Stack) == 0 {
		return fmt.Errorf("recording %d: overflow has no root-cause stack", w.recorded)
	}
	if fn := dr.RootCauses[0].Hits[0].Stack[0].Func; fn != "main" {
		return fmt.Errorf("recording %d: overflow blamed on %q, want main", w.recorded, fn)
	}
	return nil
}

// rollbacker asks for an in-situ replay at about half of the log-full
// boundaries, chosen by its seeded generator, with watchpoints armed on the
// shared cells; it times each replay from the decision to its match.
type rollbacker struct {
	rng   *rand.Rand
	watch []uint64
	span  *obs.Span

	requested int
	asked     time.Time
	pending   bool
	latMS     []float64
	hits      int
}

func (rb *rollbacker) OnEpochEnd(rt *core.Runtime, info core.EpochEndInfo) core.Decision {
	if info.Reason != core.StopLogFull || rb.rng.Intn(2) == 0 {
		return core.Proceed
	}
	m := rt.Mem()
	m.ClearWatchpoints()
	for _, a := range rb.watch {
		if err := m.ArmWatchpoint(a, 8); err != nil {
			break
		}
	}
	rb.requested++
	rb.pending = true
	rb.asked = time.Now()
	return core.Replay
}

func (rb *rollbacker) OnReplayMatched(rt *core.Runtime, attempts int) core.Decision {
	if !rb.pending {
		return core.Proceed // a replay the detector asked for
	}
	rb.pending = false
	now := time.Now()
	rb.latMS = append(rb.latMS, ms(now.Sub(rb.asked)))
	rb.span.Record("core.Replay", rb.asked, now)
	rb.hits += len(rt.WatchHits())
	rt.Mem().ClearWatchpoints()
	return core.Proceed
}

// timedObserver forwards to an epoch observer, timing its boundary scans.
type timedObserver struct {
	inner core.EpochObserver
	span  *obs.Span
	busy  time.Duration
}

func (t *timedObserver) OnEpochEnd(rt *core.Runtime, info core.EpochEndInfo) (d core.Decision) {
	t.busy += timed(t.span, "detect.OnEpochEnd", func() { d = t.inner.OnEpochEnd(rt, info) })
	return d
}

func (t *timedObserver) OnReplayMatched(rt *core.Runtime, attempts int) core.Decision {
	return t.inner.OnReplayMatched(rt, attempts)
}
