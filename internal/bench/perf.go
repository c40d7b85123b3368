package bench

// Machine-readable performance suite: the numbers `ir-bench -json` writes
// to BENCH_<n>.json so the perf trajectory is tracked PR-over-PR. The suite
// covers the five hot paths this system lives on: recording (events/sec
// while the application runs), parallel offline replay (batch throughput by
// worker count), parallel replay-time analysis (ditto, with the race and
// leak analyzers attached), segment-parallel replay of one checkpointed
// trace (the long-trace scale lever), and the trace service daemon
// sustaining concurrent analyze jobs end to end through its HTTP API (the
// multi-client scale lever).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/tir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// PerfResult is one benchmark row.
type PerfResult struct {
	// Name identifies the measurement ("record/pfscan",
	// "replay-batch/pfscan", "analyze-batch/pfscan").
	Name string `json:"name"`
	// Workers is the pool size for batch rows (0 for single-run rows).
	Workers int `json:"workers,omitempty"`
	// Ops is the number of operations timed (1 for record rows, the job
	// count for batch rows).
	Ops int `json:"ops"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp int64 `json:"ns_per_op"`
	// EventsPerSec is recorded events processed per second of wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocBytesPerOp is heap bytes allocated per operation (the
	// go-test -benchmem column, measured via runtime.MemStats), reported
	// for the memory-sensitive rows so the peak-alloc trajectory is
	// tracked PR-over-PR.
	AllocBytesPerOp int64 `json:"alloc_bytes_per_op,omitempty"`
	// PeakCacheBytes is the highest store decode-cache cost observed while
	// the row ran (serve-path rows): the daemon's RSS proxy.
	PeakCacheBytes int64 `json:"peak_cache_bytes,omitempty"`
}

// measureAllocs runs fn and returns heap bytes allocated during it.
func measureAllocs(fn func() error) (int64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc), err
}

// PerfReport is the BENCH_<n>.json document.
type PerfReport struct {
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Scale      float64      `json:"scale"`
	Results    []PerfResult `json:"results"`
}

// perfApps are the workloads the suite records and replays: lock-heavy,
// allocation-heavy, and IO-heavy representatives.
var perfApps = []string{"fluidanimate", "dedup", "pfscan"}

// Perf runs the suite at the given workload scale.
func Perf(scale float64) (*PerfReport, error) {
	rep := &PerfReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
	}
	workerSweep := []int{1, 2, 4, 8}

	for _, name := range perfApps {
		spec, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown perf app %q", name)
		}
		spec.Iters = int(float64(spec.Iters) * scale)
		if spec.Iters < 3 {
			spec.Iters = 3
		}
		mod, err := spec.Build()
		if err != nil {
			return nil, err
		}

		// Record once, in memory, timing the run.
		var epochs []*record.EpochLog
		opts := core.Options{Seed: 7}
		opts.TraceSink = func(ep *record.EpochLog) error {
			epochs = append(epochs, ep)
			return nil
		}
		rt, err := core.New(mod, opts)
		if err != nil {
			return nil, err
		}
		spec.SetupOS(rt.OS())
		start := time.Now()
		runRep, err := rt.Run()
		recordWall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: recording %s: %w", name, err)
		}
		tr := &trace.Trace{
			Header: trace.Header{App: spec.Name, ModuleHash: tir.Fingerprint(mod),
				Seed: opts.Seed, AppIters: spec.Iters},
			Epochs:  epochs,
			Summary: &trace.Summary{Exit: runRep.Exit, Output: runRep.Output},
		}
		events := tr.EventCount()
		rep.Results = append(rep.Results, PerfResult{
			Name:         "record/" + name,
			Ops:          1,
			NsPerOp:      recordWall.Nanoseconds(),
			EventsPerSec: perSec(events, recordWall),
		})

		job := trace.Job{
			Name: name, Module: mod, Handle: trace.OpenTrace(tr),
			Opts:  core.Options{DelayOnDivergence: true},
			Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
		}
		nJobs := rep.GOMAXPROCS * 2
		if nJobs < 4 {
			nJobs = 4
		}
		for _, w := range workerSweep {
			if w > rep.GOMAXPROCS {
				break
			}
			results, stats := trace.ReplayBatch(trace.Fanout(job, nJobs), w)
			if stats.Failed > 0 {
				return nil, fmt.Errorf("bench: replay batch %s w=%d: %v", name, w, firstErr(results))
			}
			rep.Results = append(rep.Results, PerfResult{
				Name:         "replay-batch/" + name,
				Workers:      w,
				Ops:          stats.Jobs,
				NsPerOp:      stats.Elapsed.Nanoseconds() / int64(stats.Jobs),
				EventsPerSec: perSec(stats.Events, stats.Elapsed),
			})

			ajobs := make([]trace.AnalyzeJob, nJobs)
			for i := range ajobs {
				ajobs[i] = trace.AnalyzeJob{
					Job: trace.Job{
						Name: fmt.Sprintf("%s#%d", name, i), Module: mod, Handle: job.Handle,
						Opts:  core.Options{DelayOnDivergence: true},
						Setup: job.Setup,
					},
					NewAnalyzers: func() []analysis.Analyzer {
						return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
					},
				}
			}
			aresults, astats := trace.AnalyzeBatch(ajobs, w)
			if astats.Failed > 0 {
				return nil, fmt.Errorf("bench: analyze batch %s w=%d: %v", name, w, firstAErr(aresults))
			}
			rep.Results = append(rep.Results, PerfResult{
				Name:         "analyze-batch/" + name,
				Workers:      w,
				Ops:          astats.Jobs,
				NsPerOp:      astats.Elapsed.Nanoseconds() / int64(astats.Jobs),
				EventsPerSec: perSec(astats.Events, astats.Elapsed),
			})
		}
	}

	if err := perfSegments(rep, scale, workerSweep); err != nil {
		return nil, err
	}
	if err := perfRing(rep, scale); err != nil {
		return nil, err
	}
	if err := perfServe(rep, scale); err != nil {
		return nil, err
	}
	return rep, nil
}

// perfSegments measures segment-parallel replay of one long checkpointed
// recording against whole-program replay of the same trace. The workload is
// a latency-bound service loop (think time dominates, as in the modeled
// servers), so the wall-clock compression segment replay buys is visible
// regardless of host core count.
func perfSegments(rep *PerfReport, scale float64, workerSweep []int) error {
	spec := workloads.RelayService()
	spec.Iters = int(float64(spec.Iters) * scale)
	if spec.Iters < 32 {
		spec.Iters = 32
	}
	memCfg := mem.Config{GlobalSize: 1 << 20, HeapSize: 2 << 20, StackSlot: 64 << 10, MaxThreads: 8}
	mod, err := spec.Build()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		App: spec.Name, ModuleHash: tir.Fingerprint(mod), Seed: 7, AppIters: spec.Iters, EventCap: 64,
	})
	if err != nil {
		return err
	}
	opts := core.Options{Seed: 7, EventCap: 64, Mem: memCfg, CheckpointEvery: 1}
	opts.TraceSink = w.Sink()
	opts.CheckpointSink = w.CheckpointSink()
	rt, err := core.New(mod, opts)
	if err != nil {
		return err
	}
	spec.SetupOS(rt.OS())
	runRep, err := rt.Run()
	if err != nil {
		return fmt.Errorf("bench: recording %s: %w", spec.Name, err)
	}
	if err := w.Finish(&trace.Summary{Exit: runRep.Exit, Output: runRep.Output}); err != nil {
		return err
	}
	// Persist the recording into a real store so every segment row below
	// pays the storage path (footer open, indexed frame reads), exactly as
	// the daemon does.
	dir, err := os.MkdirTemp("", "ir-seg-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, spec.Name+trace.Ext), buf.Bytes(), 0o644); err != nil {
		return err
	}
	st, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	h, err := st.Open(spec.Name)
	if err != nil {
		return err
	}
	defer h.Close()

	job := trace.Job{
		Name: spec.Name, Module: mod, Handle: h,
		Opts:  core.Options{Seed: 7, EventCap: 64, Mem: memCfg, DelayOnDivergence: true},
		Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
	}
	results, stats := trace.ReplayBatch([]trace.Job{job}, 1)
	if stats.Failed > 0 {
		return fmt.Errorf("bench: whole-program replay of %s: %v", spec.Name, firstErr(results))
	}
	rep.Results = append(rep.Results, PerfResult{
		Name:         "replay-whole/" + spec.Name,
		Ops:          1,
		NsPerOp:      stats.Elapsed.Nanoseconds(),
		EventsPerSec: perSec(stats.Events, stats.Elapsed),
	})
	for _, w := range workerSweep {
		sres, sstats, err := trace.ReplaySegments(job, w)
		if err != nil {
			return fmt.Errorf("bench: segment replay of %s w=%d: %w (results %+v)", spec.Name, w, err, sres)
		}
		rep.Results = append(rep.Results, PerfResult{
			Name:         "segment-replay/" + spec.Name,
			Workers:      w,
			Ops:          sstats.Jobs,
			NsPerOp:      sstats.Elapsed.Nanoseconds(),
			EventsPerSec: perSec(sstats.Events, sstats.Elapsed),
		})
	}

	// Replay-time analysis, whole-trace vs segment-parallel: the
	// analyze-segment rows pay per-segment tape capture plus the sequential
	// state fold, so their gain over the analyze-whole baseline is the
	// headline number for checkpointed analyzer state (acceptance: >= 2x
	// events/sec at 4 workers). The analysis recording deepens the service
	// loop's think time — the long-mostly-idle-trace shape segment-parallel
	// analysis exists for — so each segment's recorded waits dominate its
	// fixed fold/runtime-construction cost even on a single-core host.
	slowSpec := spec
	slowSpec.ThinkTime *= 4
	slowMod, err := slowSpec.Build()
	if err != nil {
		return err
	}
	slowOpts := core.Options{Seed: 7, EventCap: 64, Mem: memCfg, CheckpointEvery: 1}
	var slowBuf bytes.Buffer
	sw, err := trace.NewWriter(&slowBuf, trace.Header{
		App: slowSpec.Name, ModuleHash: tir.Fingerprint(slowMod), Seed: 7,
		AppIters: slowSpec.Iters, EventCap: 64,
	})
	if err != nil {
		return err
	}
	// Dense keyframes keep each segment's checkpoint fold O(1) instead of
	// replaying a delta chain back to the last keyframe.
	sw.SetKeyframeEvery(2)
	slowOpts.TraceSink = sw.Sink()
	slowOpts.CheckpointSink = sw.CheckpointSink()
	srt, err := core.New(slowMod, slowOpts)
	if err != nil {
		return err
	}
	slowSpec.SetupOS(srt.OS())
	slowRep, err := srt.Run()
	if err != nil {
		return fmt.Errorf("bench: slow recording %s: %w", slowSpec.Name, err)
	}
	if err := sw.Finish(&trace.Summary{Exit: slowRep.Exit, Output: slowRep.Output}); err != nil {
		return err
	}
	slowName := slowSpec.Name + "-slow"
	if err := os.WriteFile(filepath.Join(dir, slowName+trace.Ext), slowBuf.Bytes(), 0o644); err != nil {
		return err
	}
	sh, err := st.Open(slowName)
	if err != nil {
		return err
	}
	defer sh.Close()
	factory := func() []analysis.Analyzer {
		return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
	}
	ajob := trace.AnalyzeJob{
		Job: trace.Job{
			Name: slowName, Module: slowMod, Handle: sh,
			Opts:  core.Options{Seed: 7, EventCap: 64, Mem: memCfg, DelayOnDivergence: true},
			Setup: func(rt *core.Runtime) error { slowSpec.SetupOS(rt.OS()); return nil },
		},
		NewAnalyzers: factory,
	}
	ares, astats := trace.AnalyzeBatch([]trace.AnalyzeJob{ajob}, 1)
	if astats.Failed > 0 {
		return fmt.Errorf("bench: whole-trace analysis of %s: %v", spec.Name, firstAErr(ares))
	}
	rep.Results = append(rep.Results, PerfResult{
		Name:         "analyze-whole/" + spec.Name,
		Ops:          1,
		NsPerOp:      astats.Elapsed.Nanoseconds(),
		EventsPerSec: perSec(astats.Events, astats.Elapsed),
	})
	for _, w := range workerSweep {
		seg, sstats, err := trace.AnalyzeSegments(ajob, w)
		if err != nil {
			return fmt.Errorf("bench: segment analysis of %s w=%d: %w", spec.Name, w, err)
		}
		if !seg.Matched {
			return fmt.Errorf("bench: segment analysis of %s w=%d did not match: %v", spec.Name, w, seg.Err)
		}
		rep.Results = append(rep.Results, PerfResult{
			Name:         "analyze-segment/" + spec.Name,
			Workers:      w,
			Ops:          sstats.Jobs,
			NsPerOp:      sstats.Elapsed.Nanoseconds(),
			EventsPerSec: perSec(sstats.Events, sstats.Elapsed),
		})
	}

	// Telemetry tax: the same whole-trace and segment replays re-run with
	// collection explicitly on (histograms observed, a live span recorder
	// attached, as under the daemon) vs off. The acceptance budget is the
	// "on" rows staying within ~5% events/sec of the "off" rows.
	for _, mode := range []struct {
		tag string
		on  bool
	}{{"telemetry-off", false}, {"telemetry-on", true}} {
		prev := obs.SetEnabled(mode.on)
		tjob := job
		if mode.on {
			rec := obs.NewRecorder(4096)
			tjob.Span = rec.Start("bench/" + spec.Name)
		}
		wres, wstats := trace.ReplayBatch([]trace.Job{tjob}, 1)
		if wstats.Failed > 0 {
			obs.SetEnabled(prev)
			return fmt.Errorf("bench: %s whole replay of %s: %v", mode.tag, spec.Name, firstErr(wres))
		}
		rep.Results = append(rep.Results, PerfResult{
			Name:         "replay-whole-" + mode.tag + "/" + spec.Name,
			Ops:          1,
			NsPerOp:      wstats.Elapsed.Nanoseconds(),
			EventsPerSec: perSec(wstats.Events, wstats.Elapsed),
		})
		sres, sstats, err := trace.ReplaySegments(tjob, 0)
		obs.SetEnabled(prev)
		if err != nil {
			return fmt.Errorf("bench: %s segment replay of %s: %w (results %+v)", mode.tag, spec.Name, err, sres)
		}
		rep.Results = append(rep.Results, PerfResult{
			Name:         "segment-replay-" + mode.tag + "/" + spec.Name,
			Ops:          sstats.Jobs,
			NsPerOp:      sstats.Elapsed.Nanoseconds(),
			EventsPerSec: perSec(sstats.Events, sstats.Elapsed),
		})
	}

	// Cold start: a fresh store (empty frame cache), open the trace, replay
	// one mid-trace segment. With the v3 index and checkpoint keyframes the
	// cost is one footer read plus the segment's own frames — O(segment),
	// not O(recording) — and the alloc column tracks exactly that.
	coldStore, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	start := time.Now()
	var coldEvents int64
	allocBytes, err := measureAllocs(func() error {
		ch, err := coldStore.Open(spec.Name)
		if err != nil {
			return err
		}
		defer ch.Close()
		coldJob := job
		coldJob.Handle = ch
		res, cstats, err := trace.ReplayMidSegment(coldJob)
		if err != nil {
			return fmt.Errorf("bench: segment cold start of %s: %w (result %+v)", spec.Name, err, res)
		}
		coldEvents = cstats.Events
		return nil
	})
	if err != nil {
		return err
	}
	coldWall := time.Since(start)
	rep.Results = append(rep.Results, PerfResult{
		Name:            "segment-coldstart/" + spec.Name,
		Ops:             1,
		NsPerOp:         coldWall.Nanoseconds(),
		EventsPerSec:    perSec(coldEvents, coldWall),
		AllocBytesPerOp: allocBytes,
	})
	return nil
}

// perfRing measures the flight-recorder tax: the same workload recorded
// twice at an identical checkpoint cadence — once through a direct
// file-backed Writer sink (the ordinary store path, whole trace kept) and
// once through the bounded on-disk ring (`ir-run -flight`). Both rows
// count recorded events against the wall clock of the run itself; the
// ring's end-of-run spill is excluded because in production it only
// happens on fault. The always-on budget is the ring row staying within
// ~10% of the direct row's events/sec.
func perfRing(rep *PerfReport, scale float64) error {
	spec, ok := workloads.ByName("streamcluster")
	if !ok {
		return fmt.Errorf("bench: unknown perf app streamcluster")
	}
	spec.Iters = int(float64(spec.Iters) * scale)
	if spec.Iters < 8 {
		spec.Iters = 8
	}
	mod, err := spec.Build()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "ir-ring-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	hdr := trace.Header{
		App: spec.Name, ModuleHash: tir.Fingerprint(mod),
		Seed: 7, EventCap: 24, AppIters: spec.Iters,
	}

	// Direct arm: every epoch and checkpoint streams to a growing file.
	f, err := os.Create(filepath.Join(dir, "direct"+trace.Ext))
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f, hdr)
	if err != nil {
		return err
	}
	rt, err := core.New(mod, core.Options{Seed: 7, EventCap: 24, CheckpointEvery: 1,
		TraceSink: w.Sink(), CheckpointSink: w.CheckpointSink()})
	if err != nil {
		return err
	}
	spec.SetupOS(rt.OS())
	start := time.Now()
	runRep, err := rt.Run()
	directWall := time.Since(start)
	if err != nil {
		return fmt.Errorf("bench: direct-sink recording %s: %w", spec.Name, err)
	}
	if err := w.Finish(&trace.Summary{Exit: runRep.Exit, Output: runRep.Output}); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.Results = append(rep.Results, PerfResult{
		Name:         "ring-overhead/direct",
		Ops:          1,
		NsPerOp:      directWall.Nanoseconds(),
		EventsPerSec: perSec(rt.StatsSnapshot().EventsRecorded, directWall),
	})

	// Ring arm: the same streams feed the bounded ring, which also pays
	// rotation (trim to the newest keyframe) as the run outgrows it.
	st, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	rec, err := flight.New(flight.RingPath(st, "ring"), hdr, 4)
	if err != nil {
		return err
	}
	defer rec.Close()
	rrt, err := core.New(mod, core.Options{Seed: 7, EventCap: 24, CheckpointEvery: 1,
		TraceSink: rec.RecordEpoch, CheckpointSink: rec.RecordCheckpoint})
	if err != nil {
		return err
	}
	spec.SetupOS(rrt.OS())
	start = time.Now()
	if _, err := rrt.Run(); err != nil {
		return fmt.Errorf("bench: ring-sink recording %s: %w", spec.Name, err)
	}
	ringWall := time.Since(start)
	rep.Results = append(rep.Results, PerfResult{
		Name:         "ring-overhead/ring",
		Ops:          1,
		NsPerOp:      ringWall.Nanoseconds(),
		EventsPerSec: perSec(rrt.StatsSnapshot().EventsRecorded, ringWall),
	})
	return nil
}

// perfServe measures the trace service end to end: a daemon over a seeded
// corpus store, driven through its HTTP API by concurrent clients, with 16
// analyze jobs multiplexed across 8 workers — the acceptance shape for
// "sustains >= 8 concurrent analyze jobs with bounded queue depth". The
// events/sec reported is recorded events re-executed under analysis per
// second of wall time, submission to last terminal state.
func perfServe(rep *PerfReport, scale float64) error {
	const serveWorkers = 8
	const serveJobs = 16

	dir, err := os.MkdirTemp("", "ir-served-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	// The corpus: the ground-truth analysis programs (scale-independent).
	names := workloads.AnalysisNames()
	for _, name := range names {
		if _, err := server.RecordTrace(st, server.RecordRequest{App: name}, nil); err != nil {
			return fmt.Errorf("bench: recording %s: %w", name, err)
		}
	}

	srv, err := server.New(server.Config{Store: st, Workers: serveWorkers, QueueDepth: serveJobs})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Scheduler().Shutdown()

	submit := func(name string) (uint64, error) {
		body := fmt.Sprintf(`{"kind":"analyze","trace":%q}`, name)
		resp, err := ts.Client().Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return 0, fmt.Errorf("bench: serve submit %s: status %d", name, resp.StatusCode)
		}
		var info struct {
			ID uint64 `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return 0, err
		}
		return info.ID, nil
	}
	wait := func(id uint64) (int64, error) {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/api/v1/jobs/%d/stream", ts.URL, id))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		var last struct {
			State  string `json:"state"`
			Err    string `json:"error"`
			Result struct {
				Events int64 `json:"events"`
			} `json:"result"`
		}
		for {
			var cur struct {
				State  string `json:"state"`
				Err    string `json:"error"`
				Result struct {
					Events int64 `json:"events"`
				} `json:"result"`
			}
			if err := dec.Decode(&cur); err != nil {
				break
			}
			last = cur
		}
		if last.State != "done" {
			return 0, fmt.Errorf("bench: serve job %d: %s (%s)", id, last.State, last.Err)
		}
		return last.Result.Events, nil
	}

	start := time.Now()
	ids := make([]uint64, 0, serveJobs)
	for i := 0; i < serveJobs; i++ {
		id, err := submit(names[i%len(names)])
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	var events int64
	for _, id := range ids {
		ev, err := wait(id)
		if err != nil {
			return err
		}
		events += ev
	}
	elapsed := time.Since(start)
	rep.Results = append(rep.Results, PerfResult{
		Name:         "serve-analyze/corpus",
		Workers:      serveWorkers,
		Ops:          serveJobs,
		NsPerOp:      elapsed.Nanoseconds() / serveJobs,
		EventsPerSec: perSec(events, elapsed),
	})

	// Serve-path memory: 16 analyze jobs against 4 distinct larger traces,
	// sampling the store's frame-cache cost while they run. With
	// handle-based resolution the cache holds decoded frames of the
	// segments in flight, so the peak — the daemon's RSS proxy — tracks
	// concurrency, not corpus size.
	bigApps := []string{"fluidanimate", "dedup", "pfscan", "streamcluster"}
	for _, app := range bigApps {
		if _, err := server.RecordTrace(st, server.RecordRequest{
			App: app, Name: "big-" + app, Scale: 0.3 * scale, Seed: 7,
		}, nil); err != nil {
			return fmt.Errorf("bench: recording %s: %w", app, err)
		}
	}
	peak := int64(0)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if b := st.Stats().CachedBytes; b > peak {
					peak = b
				}
			}
		}
	}()
	start = time.Now()
	ids = ids[:0]
	for i := 0; i < serveJobs; i++ {
		id, err := submit("big-" + bigApps[i%len(bigApps)])
		if err != nil {
			close(stop)
			<-sampled
			return err
		}
		ids = append(ids, id)
	}
	events = 0
	for _, id := range ids {
		ev, err := wait(id)
		if err != nil {
			close(stop)
			<-sampled
			return err
		}
		events += ev
	}
	elapsed = time.Since(start)
	close(stop)
	<-sampled
	if b := st.Stats().CachedBytes; b > peak {
		peak = b
	}
	rep.Results = append(rep.Results, PerfResult{
		Name:           "serve-cache/4x16",
		Workers:        serveWorkers,
		Ops:            serveJobs,
		NsPerOp:        elapsed.Nanoseconds() / serveJobs,
		EventsPerSec:   perSec(events, elapsed),
		PeakCacheBytes: peak,
	})
	return nil
}

func perSec(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func firstErr(rs []trace.Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

func firstAErr(rs []trace.AnalyzeResult) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
