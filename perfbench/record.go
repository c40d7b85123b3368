package main

// record-lockheavy: always-on production recording of fluidanimate, the
// paper's lock-rate worst case, at the default event-list size, streaming
// epoch frames and a checkpoint every few epochs into a store's partial
// trace that is then committed. Per-epoch fixed cost (quiescence, the
// full-image memory snapshot, checkpoint delta encoding) dominates its wall
// time; guest interpretation is a small share.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// recordIters sizes fluidanimate so one recording crosses about 90
	// epochs at the default event-list size.
	recordIters = 4500
	// recordCheckpointEvery is the checkpoint cadence of the stored trace.
	recordCheckpointEvery = 4
)

type recordWL struct {
	cfg  config
	spec workloads.Spec
	mod  *tir.Module
	st   *trace.Store
	// ref is the program's outcome without recording; every recording and
	// replay must reproduce it.
	ref      *core.Report
	nativeS  float64
	recorded int
}

// buildApp returns the named application scaled to iters per thread.
func buildApp(name string, iters int, scale float64) (workloads.Spec, *tir.Module, error) {
	spec, err := workloads.ByNameStrict(name)
	if err != nil {
		return spec, nil, err
	}
	spec.Iters = max(3, int(float64(iters)*scale))
	mod, err := spec.Build()
	return spec, mod, err
}

// runNative runs mod with recording disabled: the reference outcome and the
// interpreter's own time (the denominator of the paper's Table 3 overhead).
func runNative(spec workloads.Spec, mod *tir.Module, seed int64) (*core.Report, time.Duration, error) {
	rt, err := core.New(mod, core.Options{Seed: seed, DisableRecording: true})
	if err != nil {
		return nil, 0, err
	}
	spec.SetupOS(rt.OS())
	start := time.Now()
	rep, err := rt.Run()
	return rep, time.Since(start), err
}

func setupRecord(cfg config) (workload, checks, error) {
	var c checks
	spec, mod, err := buildApp("fluidanimate", recordIters, cfg.scale)
	if err != nil {
		return nil, c, err
	}
	ref, native, err := runNative(spec, mod, cfg.seed)
	if err != nil {
		return nil, c, fmt.Errorf("native run: %w", err)
	}
	st, err := trace.OpenStore(filepath.Join(cfg.dir, "store"))
	if err != nil {
		return nil, c, err
	}
	return &recordWL{cfg: cfg, spec: spec, mod: mod, st: st, ref: ref, nativeS: native.Seconds()}, c, nil
}

func (w *recordWL) close() {}

func (w *recordWL) run(rec *obs.Recorder, d time.Duration, hs *heapSampler) *phase {
	ph := &phase{}
	s := series{}
	start := time.Now()
	for !timeUp(start, d, ph.attempted) {
		r, err := w.recordOnce(rec, hs)
		if err != nil {
			ph.fail(err)
			continue
		}
		ph.pass()
		ph.opMS = append(ph.opMS, r.recordS*1e3)
		ph.busy += time.Duration(r.recordS * 1e9)
		s.add("record_s", r.recordS)
		s.add("trace_mb", r.bytes/mb)
		s.addRuntime(r.stats, r.snapMS, r.restoreMS)
		s.add("trace.epoch_sink_s", r.sinkS)
		s.add("trace.checkpoint_sink_s", r.ckptS)
		s.add("trace.commit_s", r.commitS)
		s.add("trace.checkpoints", float64(r.ckpts))
		s.add("record.events", float64(r.events))
	}
	ph.wall = time.Since(start)
	ph.setMedians(s)
	ph.addNamed("record_s", "s", median(s["record_s"]), len(s["record_s"]))
	ph.addNamed("trace_mb", "MB", median(s["trace_mb"]), len(s["trace_mb"]))
	ph.setLayer("interp.native_s", w.nativeS)
	ph.setLayer("record.overhead_x", median(s["record_s"])/w.nativeS)
	return ph
}

// recording is one recording's measurements.
type recording struct {
	recordS, sinkS, ckptS, commitS float64
	snapMS, restoreMS              float64
	bytes                          float64
	ckpts                          int
	events                         int64
	stats                          core.Stats
}

// recordOnce records one run into the store, commits it, and checks it:
// the outcome matches the native run, the committed trace reopens complete
// and decodes frame by frame, and a whole replay of it reproduces the
// recorded exit and output. Only Run plus the commit is timed as record_s;
// the rest runs outside the phase's memory figures.
func (w *recordWL) recordOnce(rec *obs.Recorder, hs *heapSampler) (*recording, error) {
	w.recorded++
	name := fmt.Sprintf("fluidanimate-%d", w.recorded)
	seed := w.cfg.seed*1000 + int64(w.recorded)
	root := rec.Start("bench.recording")
	defer root.End()

	p, err := w.st.Create(name)
	if err != nil {
		return nil, err
	}
	defer p.Abort()
	tw, err := trace.NewWriter(p, trace.Header{
		App: w.spec.Name, ModuleHash: tir.Fingerprint(w.mod), Seed: seed, AppIters: w.spec.Iters,
	})
	if err != nil {
		return nil, err
	}
	r := &recording{}
	runSpan := root.Child("core.Run")
	sink, ckSink := tw.Sink(), tw.CheckpointSink()
	opts := core.Options{
		Seed:            seed,
		CheckpointEvery: recordCheckpointEvery,
		Span:            runSpan,
		TraceSink: func(ep *record.EpochLog) (err error) {
			r.events += int64(ep.EventCount())
			r.sinkS += timed(runSpan, "trace.Sink", func() { err = sink(ep) }).Seconds()
			return err
		},
		CheckpointSink: func(ck *core.Checkpoint) (err error) {
			r.ckpts++
			r.ckptS += timed(runSpan, "trace.CheckpointSink", func() { err = ckSink(ck) }).Seconds()
			return err
		},
	}
	rt, err := core.New(w.mod, opts)
	if err != nil {
		return nil, err
	}
	w.spec.SetupOS(rt.OS())
	runStart := time.Now()
	rep, runErr := rt.Run()
	runSpan.End()
	runD := time.Since(runStart)
	if runErr != nil {
		return nil, fmt.Errorf("recording %s: %w", name, runErr)
	}
	var commitErr error
	commit := timed(root, "trace.Finish+Commit", func() {
		if commitErr = tw.Finish(&trace.Summary{Exit: rep.Exit, Output: rep.Output}); commitErr != nil {
			return
		}
		r.bytes = float64(p.Bytes())
		commitErr = p.Commit()
	})
	if commitErr != nil {
		return nil, commitErr
	}
	r.recordS = (runD + commit).Seconds()
	r.commitS = commit.Seconds()
	r.stats = rt.StatsSnapshot()
	var checkErr error
	hs.untimed(func() {
		r.snapMS, r.restoreMS = timeSnapshot(rt, root)
		timed(root, "bench.check", func() { checkErr = w.check(name, rep) })
		if err := w.st.Remove(name); err != nil && checkErr == nil {
			checkErr = err
		}
	})
	return r, checkErr
}

// check compares the recording's outcome with the native run's, then
// reopens the committed trace, decodes every frame, and replays it whole.
func (w *recordWL) check(name string, rep *core.Report) error {
	if rep.Exit != w.ref.Exit || rep.Output != w.ref.Output {
		return fmt.Errorf("recording %s: exit %d, want %d as run natively", name, rep.Exit, w.ref.Exit)
	}
	if w.cfg.tamper {
		if err := flipByte(w.st.Path(name)); err != nil {
			return err
		}
	}
	h, err := w.st.Open(name)
	if err != nil {
		return err
	}
	defer h.Close()
	if !h.Complete() {
		return fmt.Errorf("trace %s reopens incomplete", name)
	}
	tr, err := h.Trace()
	if err != nil {
		return fmt.Errorf("trace %s: %w", name, err)
	}
	if tr.Summary == nil || tr.Summary.Exit != rep.Exit || tr.Summary.Output != rep.Output {
		return fmt.Errorf("trace %s: stored summary differs from the run", name)
	}
	results, _ := trace.ReplayBatch([]trace.Job{{
		Name: name, Module: w.mod, Handle: trace.OpenTrace(tr),
		Opts:  core.Options{Seed: tr.Header.Seed},
		Setup: func(rt *core.Runtime) error { w.spec.SetupOS(rt.OS()); return nil },
	}}, 1)
	if res := results[0]; !res.Matched || res.Err != nil {
		return fmt.Errorf("replay of %s: matched=%v: %v", name, res.Matched, res.Err)
	}
	return nil
}

// timeSnapshot times one Memory.Snapshot and one Memory.Restore of the
// runtime's final address-space image, in milliseconds.
func timeSnapshot(rt *core.Runtime, span *obs.Span) (snapMS, restoreMS float64) {
	m := rt.Mem()
	var s *mem.Snapshot
	snapMS = ms(timed(span, "mem.Snapshot", func() { s = m.Snapshot() }))
	restoreMS = ms(timed(span, "mem.Restore", func() { m.Restore(s) }))
	return snapMS, restoreMS
}

// flipByte corrupts the byte in the middle of the file at path.
func flipByte(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() == 0 {
		return errors.New("tamper: empty file")
	}
	b := make([]byte, 1)
	off := fi.Size() / 2
	if _, err := f.ReadAt(b, off); err != nil {
		return err
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		return err
	}
	return f.Close()
}
