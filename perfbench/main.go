// Command perfbench is the repository benchmark: one workload per
// invocation, driven only through the system's public packages (core, trace,
// detect, mem, and the trace service's HTTP API).
//
//	go run . --workload record-lockheavy --seed 1 --seconds 30 --trace 0
//
// Each run sets the workload up several times (setup_s is the median), then
// repeats the workload's unit operation for --seconds, checking every
// operation's output. The last line of standard output is one JSON object:
// with --trace 0 it carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of a second, traced phase (spans around every call into
// a layer, plus the runtime's own epoch spans), together with the tracing
// overhead measured against an untraced phase of the same length. A traced
// run also writes a Chrome trace and a per-layer self-time table under
// --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupReps is how many times a run builds its workload state; setup_s is
// the median. The first two set-ups of a process run up to twice as slow as
// the rest, so the median of seven lands among the warm ones.
const setupReps = 7

// config is what a workload is built from.
type config struct {
	seed int64
	// scale multiplies the workloads' sizes; the benchmark runs at 1, the
	// package's own tests far below it.
	scale float64
	// tamper corrupts one input (see each workload) so the correctness
	// checks must fail; only the package's tests set it.
	tamper bool
	// dir is a scratch directory the workload owns.
	dir string
}

// workload is one set-up workload state.
type workload interface {
	// run repeats the unit operation until d has elapsed (at least once).
	// Work it does not time (output checks, extra measurements) runs through
	// hs.untimed, so the phase's heap figures leave it out.
	run(rec *obs.Recorder, d time.Duration, hs *heapSampler) *phase
	close()
}

// discardedSetup is implemented by a workload whose set-up repeats a step
// until its result has the wanted shape; the time of the discarded
// attempts is not part of setup_s.
type discardedSetup interface {
	discarded() time.Duration
}

type workloadDef struct {
	name string
	// setup builds fresh state; the checks it makes count toward fail_frac.
	setup func(cfg config) (workload, checks, error)
}

var workloadDefs = []workloadDef{
	{"record-lockheavy", setupRecord},
	{"insitu-replay", setupInsitu},
	{"service-analyze", setupService},
}

// checks counts correctness checks: attempted operations and the ones whose
// output was wrong or that failed outright.
type checks struct {
	attempted, failed int
	// firstErr is the first failure, reported on standard error.
	firstErr error
}

func (c *checks) pass() { c.attempted++ }
func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

// fail counts one failed operation.
func (c *checks) fail(err error) {
	c.attempted++
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// check records one operation's verdict: err == nil passes.
func (c *checks) check(err error) {
	if err != nil {
		c.fail(err)
		return
	}
	c.pass()
}

// phase is one timed phase's measurements.
type phase struct {
	checks
	// opMS holds the latency of each completed unit operation.
	opMS []float64
	wall time.Duration
	// busy is the part of wall spent in timed work, leaving out the
	// untimed output checks; ops_per_s is completed operations per busy
	// second. Where busy is the sum of the operation latencies
	// (record-lockheavy, service-analyze) that is 1/mean latency, which
	// gates the mean where op_p50_ms gates the median; on insitu-replay busy
	// is recording time, so it is replays per second recorded.
	busy time.Duration
	// meanHeapMB is the Go heap in use, averaged over the phase; measurePhase
	// fills it and the go.* per-layer values. A peak moves with where the
	// collector happened to run; an average does not.
	meanHeapMB float64
	// named are the workload's own figures, printed with their sample
	// counts.
	named []namedMetric
	// layers are the per-layer values, keyed by per-layer metric name.
	layers map[string]float64
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	n     int
}

func (p *phase) opsPerS() float64 {
	if p.busy <= 0 {
		return 0
	}
	return float64(len(p.opMS)) / p.busy.Seconds()
}

// addNamed records one of the workload's own figures, which a traced run
// also reports as a per-layer metric.
func (p *phase) addNamed(name, unit string, value float64, n int) {
	p.named = append(p.named, namedMetric{name, value, unit, n})
	p.setLayer(name, value)
}

// setMedians sets each series' median as the per-layer value of its name.
func (p *phase) setMedians(s series) {
	for name, vs := range s {
		p.setLayer(name, median(vs))
	}
}

func (p *phase) setLayer(name string, v float64) {
	if p.layers == nil {
		p.layers = map[string]float64{}
	}
	p.layers[name] = v
}

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports; BENCHMARK.json
// names the same set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"mean_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics a traced run reports. A workload that
// bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"record_s", "s"},
	{"trace_mb", "MB"},
	{"insitu_replay_p50_ms", "ms"},
	{"insitu_replay_p90_ms", "ms"},
	{"replay_p50_ms", "ms"},
	{"analyze_p50_ms", "ms"},
	{"segment_analyze_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"core.quiescence_s", "s"},
	{"core.epochs", "count"},
	{"core.replays", "count"},
	{"core.divergences", "count"},
	{"mem.snapshot_ms", "ms"},
	{"mem.restore_ms", "ms"},
	{"go.peak_heap_mb", "MB"},
	{"go.peak_live_mb", "MB"},
	{"go.alloc_mb", "MB"},
	{"go.gc_count", "count"},
	{"trace.epoch_sink_s", "s"},
	{"trace.checkpoint_sink_s", "s"},
	{"trace.commit_s", "s"},
	{"trace.checkpoints", "count"},
	{"trace.fold_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.stitch_ms", "ms"},
	{"analysis.merge_ms", "ms"},
	{"core.segment_exec_ms", "ms"},
	{"trace.cache_hit_rate", "ratio"},
	{"interp.native_s", "s"},
	{"record.events", "count"},
	{"record.overhead_x", "x"},
	{"detect.scan_s", "s"},
	{"detect.root_causes", "count"},
	{"interp.watch_hits", "count"},
	{"analysis.callback_ms", "ms"},
	{"sched.queue_ms", "ms"},
	{"server.resolve_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"bench.tracing_overhead_ms", "ms"},
	{"bench.spans", "count"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced phase")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch state and traces")
	)
	flag.Parse()
	res, err := runBenchmark(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, 1, false, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runBenchmark runs one workload and returns its result line, printing the
// human-readable figures on the way. A run in which any check failed returns
// its counts together with an error, so no metric of a wrong run is
// reported.
func runBenchmark(name string, seed int64, d time.Duration, traced bool, scale float64, tamper bool, out string) (*result, error) {
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		names := make([]string, len(workloadDefs))
		for i, w := range workloadDefs {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if d <= 0 || scale <= 0 {
		return nil, fmt.Errorf("--seconds and --scale must be positive")
	}
	runDir := filepath.Join(out, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(1 << 17)
	}
	cfg := config{seed: seed, scale: scale, tamper: tamper}

	var total checks
	var setups []float64
	var wl workload
	for i := 0; i < setupReps; i++ {
		cfg.dir = filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		// Every set-up starts from a collected heap, as every phase does.
		runtime.GC()
		start := time.Now()
		w, c, err := def.setup(cfg)
		took := time.Since(start)
		if ds, ok := w.(discardedSetup); ok && err == nil {
			took -= ds.discarded()
		}
		setups = append(setups, took.Seconds())
		if err != nil {
			if wl != nil {
				wl.close()
			}
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		total.add(c)
		if wl != nil {
			wl.close()
		}
		wl = w
	}
	defer wl.close()

	ph := measurePhase(wl, nil, d)
	total.add(ph.checks)
	res := &result{Metrics: map[string]metricOut{}}
	fmt.Printf("workload %s  seed %d  timed %.1fs  ops %d\n", name, seed, ph.wall.Seconds(), len(ph.opMS))
	fmt.Printf("  %-26s %12.4f %-5s n=%d\n", "setup_s", median(setups), "s", len(setups))
	e2e := map[string]float64{
		"setup_s":      median(setups),
		"op_p50_ms":    median(ph.opMS),
		"ops_per_s":    ph.opsPerS(),
		"mean_heap_mb": ph.meanHeapMB,
	}
	printPhase(ph)

	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{e2e[m.name], m.unit}
		}
	} else {
		tph := measurePhase(wl, rec, d)
		total.add(tph.checks)
		fmt.Printf("traced phase: timed %.1fs  ops %d\n", tph.wall.Seconds(), len(tph.opMS))
		printPhase(tph)
		tph.setLayer("bench.tracing_overhead_ms", median(tph.opMS)-median(ph.opMS))
		spans, dropped := rec.Snapshot()
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: span ring dropped %d spans\n", dropped)
		}
		if x, ok := wl.(interface{ extraSpans() []obs.SpanRecord }); ok {
			spans = append(spans, x.extraSpans()...)
		}
		tph.setLayer("bench.spans", float64(len(spans)))
		if err := writeTrace(out, name, seed, spans); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOut{tph.layers[m.name], m.unit}
		}
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0 && total.attempted > 0
	fmt.Printf("  %-26s %12.4f %-5s n=%d\n", "fail_frac", float64(total.failed)/float64(max(total.attempted, 1)), "frac", total.attempted)
	if !res.Correct {
		return res, fmt.Errorf("%d of %d checks failed; first failure: %v", total.failed, total.attempted, total.firstErr)
	}
	return res, nil
}

func printPhase(ph *phase) {
	fmt.Printf("  %-26s %12.4f %-5s n=%d\n", "op_p50_ms", median(ph.opMS), "ms", len(ph.opMS))
	if len(ph.opMS) >= 100 {
		fmt.Printf("  %-26s %12.4f %-5s n=%d\n", "op_p90_ms", percentile(ph.opMS, 0.9), "ms", len(ph.opMS))
	}
	fmt.Printf("  %-26s %12.4f %-5s n=%d\n", "ops_per_s", ph.opsPerS(), "1/s", len(ph.opMS))
	fmt.Printf("  %-26s %12.4f %-5s\n", "mean_heap_mb", ph.meanHeapMB, "MB")
	for _, m := range ph.named {
		fmt.Printf("  %-26s %12.4f %-5s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	named := map[string]bool{}
	for _, m := range ph.named {
		named[m.name] = true
	}
	keys := make([]string, 0, len(ph.layers))
	for k := range ph.layers {
		if !named[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-26s %12.4f\n", k, ph.layers[k])
	}
}
