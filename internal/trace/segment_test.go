package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/tir"
	"repro/internal/workloads"
)

// recordCheckpointed records spec with checkpoint frames every interval
// epochs and returns the decoded trace.
func recordCheckpointed(t testing.TB, spec workloads.Spec, opts core.Options, interval int) *Trace {
	t.Helper()
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{
		App:        spec.Name,
		ModuleHash: tir.Fingerprint(mod),
		EventCap:   opts.EventCap,
		VarCap:     opts.VarCap,
		Seed:       opts.Seed,
		AppIters:   spec.Iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.TraceSink = w.Sink()
	opts.CheckpointEvery = interval
	opts.CheckpointSink = w.CheckpointSink()
	rt, err := core.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec.SetupOS(rt.OS())
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("record %s: %v", spec.Name, err)
	}
	if err := w.Finish(&Summary{Exit: rep.Exit, Output: rep.Output}); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return tr
}

// segmentJob builds the replay job for a recorded spec.
func segmentJob(t testing.TB, spec workloads.Spec, tr *Trace, opts core.Options) Job {
	t.Helper()
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Name: spec.Name, Module: mod, Handle: OpenTrace(tr), Opts: opts,
		Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
	}
}

// TestSegmentReplayStitches is the tentpole acceptance test: a >=8-epoch
// checkpointed recording replays segment-parallel, every interior segment's
// end state byte-matches the next checkpoint, and the stitched output/exit
// reproduce the recording.
func TestSegmentReplayStitches(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	tr := recordCheckpointed(t, spec, opts, 2)
	if len(tr.Epochs) < 8 {
		t.Fatalf("want >= 8 epochs, got %d", len(tr.Epochs))
	}
	if len(tr.Checkpoints) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %d", len(tr.Checkpoints))
	}

	job := segmentJob(t, spec, tr, core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true})
	results, stats, err := ReplaySegments(job, 4)
	if err != nil {
		t.Fatalf("segment replay: %v (results %+v)", err, results)
	}
	if stats.Jobs != len(tr.Checkpoints)+1 || stats.Matched != stats.Jobs || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Events != tr.EventCount() {
		t.Fatalf("replayed %d events, recorded %d", stats.Events, tr.EventCount())
	}
	// Segments partition the epoch range contiguously.
	next := int64(1)
	for _, r := range results {
		if r.FirstEpoch != next {
			t.Fatalf("segment %d begins at epoch %d, want %d", r.Seg, r.FirstEpoch, next)
		}
		next = r.LastEpoch + 1
	}
	if next != int64(len(tr.Epochs))+1 {
		t.Fatalf("segments end at epoch %d, trace has %d", next-1, len(tr.Epochs))
	}
}

// TestSegmentReplayAcrossWorkloads stitches checkpointed recordings of the
// mechanically distinct workload families: pfscan (file IO — the VFS state
// in the checkpoint seeds revocable re-issue), dedup (allocation-heavy —
// allocator metadata restore), fluidanimate (barrier-synchronized — threads
// blocked across checkpoint boundaries).
func TestSegmentReplayAcrossWorkloads(t *testing.T) {
	for _, tc := range []struct {
		app   string
		scale float64
	}{
		{"pfscan", 0.3},
		{denseApp(), 0.3}, // dedup; streamcluster under the host race detector
		{"fluidanimate", 0.1},
	} {
		t.Run(tc.app, func(t *testing.T) {
			spec := scaledSpec(t, tc.app, tc.scale)
			opts := core.Options{Seed: 21, EventCap: 32}
			tr := recordCheckpointed(t, spec, opts, 2)
			if len(tr.Checkpoints) == 0 {
				t.Skipf("%s produced %d epochs, no checkpoints", tc.app, len(tr.Epochs))
			}
			job := segmentJob(t, spec, tr, core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true})
			results, stats, err := ReplaySegments(job, 4)
			if err != nil {
				t.Fatalf("segment replay: %v", err)
			}
			if stats.Failed != 0 || stats.Matched != len(results) {
				t.Fatalf("stats = %+v", stats)
			}
		})
	}
}

// TestSegmentReplayUncheckpointed: a trace without checkpoint frames
// degrades to a single whole-program segment.
func TestSegmentReplayUncheckpointed(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.2)
	opts := core.Options{Seed: 9}
	tr := recordTrace(t, spec, opts)
	if len(tr.Checkpoints) != 0 {
		t.Fatalf("unexpected checkpoints: %d", len(tr.Checkpoints))
	}
	job := segmentJob(t, spec, tr, core.Options{Seed: opts.Seed, DelayOnDivergence: true})
	results, stats, err := ReplaySegments(job, 2)
	if err != nil {
		t.Fatalf("single-segment replay: %v", err)
	}
	if len(results) != 1 || stats.Matched != 1 {
		t.Fatalf("results = %+v stats = %+v", results, stats)
	}
}

// TestCheckpointRoundTrip: checkpoint frames survive encode/decode with the
// delta chain intact, and re-encoding a decoded checkpointed trace is
// byte-stable.
func TestCheckpointRoundTrip(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.4)
	tr := recordCheckpointed(t, spec, core.Options{Seed: 3, EventCap: 48}, 2)
	if len(tr.Checkpoints) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	b1, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Checkpoints) != len(tr.Checkpoints) {
		t.Fatalf("checkpoint count round-trip: %d != %d", len(tr2.Checkpoints), len(tr.Checkpoints))
	}
	s1, err := tr.CheckpointStates()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tr2.CheckpointStates()
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i].Epoch != s2[i].Epoch || s1[i].NextTID != s2[i].NextTID ||
			s1[i].OutputLen != s2[i].OutputLen {
			t.Fatalf("checkpoint %d metadata mismatch: %+v vs %+v", i, s1[i], s2[i])
		}
		if !s1[i].Snap.Equal(s2[i].Snap) {
			t.Fatalf("checkpoint %d memory image mismatch (%d bytes differ)",
				i, s1[i].Snap.DiffCount(s2[i].Snap))
		}
		if len(s1[i].Threads) != len(s2[i].Threads) || len(s1[i].Vars) != len(s2[i].Vars) {
			t.Fatalf("checkpoint %d cast mismatch", i)
		}
	}
	b2, err := Encode(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("checkpointed encoding is not byte-stable: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestTrailingCheckpointPrefix: a recorder killed after flushing a
// checkpoint frame but before its epoch leaves a clean prefix whose last
// frame is that checkpoint. The prefix must load (checkpoint dropped —
// it pins nothing), re-encode, and segment-replay.
func TestTrailingCheckpointPrefix(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.4)
	opts := core.Options{Seed: 3, EventCap: 48}
	tr := recordCheckpointed(t, spec, opts, 2)
	if len(tr.Checkpoints) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the frames; cut immediately after the first checkpoint frame.
	off := len(Magic)
	cut := 0
	for off < len(b) {
		kind := b[off]
		n, w := binary.Uvarint(b[off+1:])
		end := off + 1 + w + int(n) + 4
		if kind == frameCkpt {
			cut = end
			break
		}
		off = end
	}
	if cut == 0 {
		t.Fatal("no checkpoint frame found")
	}

	got, err := Decode(b[:cut])
	if err != nil {
		t.Fatalf("checkpoint-terminated prefix failed to load: %v", err)
	}
	if len(got.Checkpoints) != 0 {
		t.Fatalf("trailing checkpoint not dropped: %d left", len(got.Checkpoints))
	}
	if len(got.Epochs) == 0 || got.Summary != nil {
		t.Fatalf("prefix decoded to %d epochs, summary=%v", len(got.Epochs), got.Summary)
	}
	if _, err := Encode(got); err != nil {
		t.Fatalf("prefix failed to re-encode: %v", err)
	}
	job := segmentJob(t, spec, got, core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true})
	if _, stats, err := ReplaySegments(job, 2); err != nil || stats.Matched != stats.Jobs {
		t.Fatalf("prefix segment replay: %v (stats %+v)", err, stats)
	}
}
