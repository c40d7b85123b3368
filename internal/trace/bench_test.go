package trace

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// BenchmarkEncodeDecode times the serialization round-trip on a realistic
// trace; bytes/event is reported so format regressions (delta or varint
// changes) show up as size, not just time.
func BenchmarkEncodeDecode(b *testing.B) {
	spec := scaledSpec(b, "dedup", 0.3)
	tr := recordTrace(b, spec, core.Options{Seed: 1})
	enc, err := Encode(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(enc))/float64(tr.EventCount()), "bytes/event")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, err := Encode(tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(bs); err != nil {
			b.Fatal(err)
		}
	}
}

// segmentBenchSpec is the workload BenchmarkSegmentReplay records: a
// latency-bound service loop (the aget/apache/memcached shape — each
// request computes briefly, then waits on backend/network think time).
// Replay re-executes the waits, so a long recording's replay wall is
// latency-, not CPU-, bound — exactly the case where splitting the trace at
// its checkpoints and overlapping segments compresses wall-clock on any
// host, single-core CI included.
func segmentBenchSpec() workloads.Spec {
	return workloads.Spec{
		Name: "relay-service", Threads: 4, Iters: 336,
		Locks: 1, LockStride: 4, WritesPerLock: 1,
		TimeCalls: 1, ThinkTime: 1500, WorkingSet: 16 << 10,
	}
}

// segmentBenchMem keeps checkpoint images proportional to the workload
// instead of the laptop-scale default arena.
func segmentBenchMem() mem.Config {
	return mem.Config{GlobalSize: 1 << 20, HeapSize: 2 << 20, StackSlot: 64 << 10, MaxThreads: 8}
}

// BenchmarkSegmentReplay is the scale lever this layer exists for: one long
// checkpointed recording (>= 8 epochs) replayed whole-program vs split at
// its checkpoints and replayed segment-parallel. events/sec is recorded
// events replayed per second of wall time; the "speedup" metric on the
// segment runs is whole-program wall time over segment-parallel wall time
// for the same trace.
func BenchmarkSegmentReplay(b *testing.B) {
	spec := segmentBenchSpec()
	opts := core.Options{Seed: 9, EventCap: 64, Mem: segmentBenchMem()}
	tr := recordCheckpointed(b, spec, opts, 1)
	if len(tr.Epochs) < 8 {
		b.Fatalf("want >= 8 epochs, got %d", len(tr.Epochs))
	}
	job := segmentJob(b, spec, tr, core.Options{
		Seed: opts.Seed, EventCap: opts.EventCap, Mem: opts.Mem, DelayOnDivergence: true,
	})

	var wholeWall float64
	b.Run("whole-program", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			results, stats := ReplayBatch([]Job{job}, 1)
			if stats.Failed > 0 {
				b.Fatal(results[0].Err)
			}
			b.ReportMetric(float64(stats.Events)/stats.Elapsed.Seconds(), "events/sec")
			total += stats.Elapsed.Seconds()
		}
		wholeWall = total / float64(b.N)
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("segments/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, stats, err := ReplaySegments(job, workers)
				if err != nil {
					b.Fatalf("%v (results %+v)", err, results)
				}
				b.ReportMetric(float64(stats.Events)/stats.Elapsed.Seconds(), "events/sec")
				if wholeWall > 0 {
					b.ReportMetric(wholeWall/stats.Elapsed.Seconds(), "speedup")
				}
			}
		})
	}
}

// BenchmarkSegmentColdStart measures the cold path the daemon pays when a
// segment job lands on a trace nothing has touched: open the store (empty
// frame cache), resolve the handle (one footer read), and replay one
// mid-trace segment. With the index footer and checkpoint keyframes this is
// O(segment) — the epochs and checkpoints outside the segment are never
// read — and -benchmem's allocation columns track exactly that footprint.
func BenchmarkSegmentColdStart(b *testing.B) {
	spec := segmentBenchSpec()
	opts := core.Options{Seed: 9, EventCap: 64, Mem: segmentBenchMem()}
	enc := recordCheckpointedBytes(b, spec, opts, 1, 4)
	st := storeWith(b, "cold", enc)
	mod, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	job := Job{
		Name: spec.Name, Module: mod,
		Opts:  core.Options{Seed: opts.Seed, EventCap: opts.EventCap, Mem: opts.Mem, DelayOnDivergence: true},
		Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold, err := OpenStore(st.Dir()) // fresh store: nothing cached
		if err != nil {
			b.Fatal(err)
		}
		h, err := cold.Open("cold")
		if err != nil {
			b.Fatal(err)
		}
		job.Handle = h
		res, stats, err := ReplayMidSegment(job)
		if err != nil {
			b.Fatalf("%v (result %+v)", err, res)
		}
		h.Close()
		b.ReportMetric(float64(stats.Events)/stats.Elapsed.Seconds(), "events/sec")
	}
}

// BenchmarkAnalyzeBatch measures parallel replay-time analysis throughput
// (race + leak analyzers attached to every replay) by worker count;
// events/sec is the recorded events re-executed under analysis per second
// of batch wall time.
func BenchmarkAnalyzeBatch(b *testing.B) {
	spec := scaledSpec(b, "fluidanimate", 0.2)
	tr := recordTrace(b, spec, core.Options{Seed: 17})
	mod, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	base := AnalyzeJob{
		Job: Job{
			Name: spec.Name, Module: mod, Handle: OpenTrace(tr),
			Opts:  core.Options{DelayOnDivergence: true},
			Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
		},
		NewAnalyzers: func() []analysis.Analyzer {
			return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
		},
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jobs := make([]AnalyzeJob, 2*workers)
				for j := range jobs {
					jobs[j] = base
					jobs[j].Name = fmt.Sprintf("%s#%d", spec.Name, j)
				}
				results, stats := AnalyzeBatch(jobs, workers)
				if stats.Failed > 0 {
					for _, r := range results {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
				b.ReportMetric(float64(stats.Events)/stats.Elapsed.Seconds(), "events/sec")
			}
		})
	}
}
