package flight

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/tir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// flightSpec scales a workload down to test size.
func flightSpec(t testing.TB, name string, scale float64) workloads.Spec {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	s.Iters = int(float64(s.Iters) * scale)
	if s.Iters < 3 {
		s.Iters = 3
	}
	return s
}

// recordWithFlight runs spec with a flight recorder of the given retention
// attached through the two sink fields, and returns the recorder, the
// store, the module, and the run's report. opts.CheckpointEvery is passed
// through as given (unset: the every-epoch default). The recorder is left
// open; callers spill, salvage, or close it.
func recordWithFlight(t *testing.T, spec workloads.Spec, opts core.Options, retain int) (*Recorder, *trace.Store, *tir.Module, *core.Report) {
	t.Helper()
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New(RingPath(st, spec.Name), trace.Header{
		App:        spec.Name,
		ModuleHash: tir.Fingerprint(mod),
		EventCap:   opts.EventCap,
		VarCap:     opts.VarCap,
		Seed:       opts.Seed,
		AppIters:   spec.Iters,
	}, retain)
	if err != nil {
		t.Fatal(err)
	}
	opts.TraceSink, opts.CheckpointSink = rec.RecordEpoch, rec.RecordCheckpoint
	rt, err := core.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec.SetupOS(rt.OS())
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("record %s: %v", spec.Name, err)
	}
	return rec, st, mod, rep
}

// TestRingSpillSuffixReplays is the flight-recorder acceptance path: a run
// long enough to rotate the ring several times spills a suffix trace whose
// leading keyframe resumes the replay mid-run, and both the whole-trace and
// the segment-parallel paths reproduce the recorded exit and the suffix's
// share of the output byte-for-byte.
func TestRingSpillSuffixReplays(t *testing.T) {
	spec := flightSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	rec, st, _, rep := recordWithFlight(t, spec, opts, 3)
	defer rec.Close()

	if got := rec.Epochs(); got < 3 || got > 6 {
		t.Fatalf("ring retains %d epochs, want within [3,6]", got)
	}
	stats, err := rec.Spill(st, spec.Name, &trace.Summary{Exit: rep.Exit, Output: rep.Output})
	if err != nil {
		t.Fatalf("spill: %v", err)
	}
	if !stats.Suffix {
		t.Fatalf("spill is not a suffix: %+v", stats)
	}
	if stats.Epochs < 3 || stats.Epochs > 6 {
		t.Fatalf("spill retains %d epochs, want within [3,6]", stats.Epochs)
	}

	h, err := st.Open(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.Complete() || !h.LeadingCheckpoint() {
		t.Fatalf("spilled trace: complete=%v leadingCheckpoint=%v", h.Complete(), h.LeadingCheckpoint())
	}
	if sum := h.Summary(); sum == nil || sum.Partial || sum.Exit != rep.Exit {
		t.Fatalf("spilled summary = %+v, want exit %d and no partial flag", h.Summary(), rep.Exit)
	}

	// Whole-trace path: compareSummary enforces the recorded exit and the
	// trimmed output byte-identically.
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	job := trace.Job{Name: spec.Name, Module: mod, Handle: h,
		Opts: core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true}}
	results, bstats := trace.ReplayBatch([]trace.Job{job}, 1)
	if !results[0].Matched || bstats.Matched != 1 {
		t.Fatalf("suffix replay did not match: %+v", results[0])
	}

	// Segment path: the suffix's interior checkpoints split it further; the
	// stitched result must agree with the same oracle.
	if h.NumCheckpoints() < 2 {
		t.Fatalf("suffix has %d checkpoints, want >= 2 for a segment split", h.NumCheckpoints())
	}
	segResults, segStats, err := trace.ReplaySegments(job, 2)
	if err != nil {
		t.Fatalf("segment replay: %v (results %+v)", err, segResults)
	}
	if segStats.Failed != 0 || segStats.Matched != segStats.Jobs {
		t.Fatalf("segment stats = %+v", segStats)
	}
}

// TestRingStaysBounded: the ring file holds at most twice the retention
// target of epochs however long the run, and its current contents always
// decode as a clean trace prefix. CheckpointEvery is left unset: a
// CheckpointSink without a cadence gets a checkpoint every epoch, which is
// what lets the ring trim.
func TestRingStaysBounded(t *testing.T) {
	spec := flightSpec(t, "streamcluster", 0.5)
	rec, _, _, rep := recordWithFlight(t, spec, core.Options{Seed: 9, EventCap: 24}, 2)
	defer rec.Close()

	if rep.Stats.Epochs <= 4 {
		t.Fatalf("run recorded %d epochs; too short to outgrow the ring", rep.Stats.Epochs)
	}
	if got := rec.Epochs(); got < 2 || got > 4 {
		t.Fatalf("ring retains %d epochs, want within [2,4]", got)
	}
	f, err := os.Open(rec.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadPrefix(f)
	if err != nil {
		t.Fatalf("ring does not decode: %v", err)
	}
	if len(tr.Epochs) != rec.Epochs() {
		t.Fatalf("ring file decodes %d epochs, recorder says %d", len(tr.Epochs), rec.Epochs())
	}
	if len(tr.Checkpoints) != len(tr.Epochs) {
		t.Fatalf("ring holds %d checkpoints for %d epochs, want one per epoch",
			len(tr.Checkpoints), len(tr.Epochs))
	}
	if tr.Checkpoints[0].Epoch() != tr.Epochs[0].Epoch {
		t.Fatalf("rotated ring does not begin at a checkpoint (first ckpt %v, first epoch %d)",
			tr.Checkpoints, tr.Epochs[0].Epoch)
	}
	if !tr.Checkpoints[0].Keyframe {
		t.Fatal("rotated ring's leading checkpoint is not a keyframe")
	}
}

// TestSalvageTornRing simulates the SIGKILL outcome: the recorder never
// closes and the ring's final frame is torn mid-write. Salvage must decode
// the clean prefix, store it as a complete (partial-summary) suffix trace,
// and the suffix must still replay its schedule.
func TestSalvageTornRing(t *testing.T) {
	spec := flightSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	rec, st, _, _ := recordWithFlight(t, spec, opts, 3)
	defer rec.Close()

	// A SIGKILL mid-Write leaves a torn tail; model it with a truncated copy.
	b, err := os.ReadFile(rec.Path())
	if err != nil {
		t.Fatal(err)
	}
	torn := RingPath(st, "torn")
	if err := os.WriteFile(torn, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := Salvage(torn, st, "crashed")
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if stats.Epochs == 0 {
		t.Fatalf("salvage kept no epochs: %+v", stats)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("salvage left the ring behind (err=%v)", err)
	}

	h, err := st.Open("crashed")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.Complete() {
		t.Fatal("salvaged trace is not complete")
	}
	if sum := h.Summary(); sum == nil || !sum.Partial {
		t.Fatalf("salvaged summary = %+v, want partial", h.Summary())
	}
	if !h.LeadingCheckpoint() {
		t.Fatal("salvaged rotated ring lost its leading checkpoint")
	}

	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	job := trace.Job{Name: "crashed", Module: mod, Handle: h,
		Opts: core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true}}
	results, _ := trace.ReplayBatch([]trace.Job{job}, 1)
	if !results[0].Matched {
		t.Fatalf("salvaged suffix did not replay: %+v", results[0])
	}
}

// TestCloseRemovesRing: a clean shutdown leaves nothing behind.
func TestCloseRemovesRing(t *testing.T) {
	spec := flightSpec(t, "streamcluster", 0.3)
	rec, _, _, _ := recordWithFlight(t, spec, core.Options{Seed: 9, EventCap: 24}, 3)
	path := rec.Path()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("ring survived Close (err=%v)", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
