package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

const mb = 1e6

// heapSampleEvery is the heap sampling period: short next to a GC cycle of
// these workloads (tens of milliseconds), long enough that sampling costs
// nothing measurable.
const heapSampleEvery = 2 * time.Millisecond

const (
	heapLive    = "/gc/heap/live:bytes"
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
	gcCycles    = "/gc/cycles/total:gc-cycles"
)

func readMetrics(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(s))
	for i := range s {
		out[i] = s[i].Value.Uint64()
	}
	return out
}

// heapSampler samples the Go heap in use every heapSampleEvery while a
// phase runs, except inside untimed windows.
type heapSampler struct {
	paused atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
	// Written by the sampling goroutine, read after it has stopped.
	peak, peakLive, total, samples uint64
	// excluded counts the bytes allocated and the collections run inside
	// untimed windows, in the order heapAllocs, gcCycles.
	excluded [2]uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{})}
	hs.wg.Add(1)
	go func() {
		defer hs.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			if !hs.paused.Load() {
				v := readMetrics(heapObjects, heapLive)
				hs.peak = max(hs.peak, v[0])
				hs.peakLive = max(hs.peakLive, v[1])
				hs.total += v[0]
				hs.samples++
			}
			select {
			case <-hs.stop:
				return
			case <-t.C:
			}
		}
	}()
	return hs
}

// untimed runs fn outside the phase's memory figures: no heap samples, and
// its allocations and collections are not counted. It collects the garbage
// fn left before sampling resumes, so the next operation starts from the
// heap it would have had without fn.
func (hs *heapSampler) untimed(fn func()) {
	hs.paused.Store(true)
	before := readMetrics(heapAllocs, gcCycles)
	fn()
	runtime.GC()
	after := readMetrics(heapAllocs, gcCycles)
	hs.excluded[0] += after[0] - before[0]
	hs.excluded[1] += after[1] - before[1]
	hs.paused.Store(false)
}

func (hs *heapSampler) halt() {
	close(hs.stop)
	hs.wg.Wait()
}

// measurePhase runs one timed phase of wl while sampling the Go heap, and
// fills the phase's memory figures. It collects garbage first so every phase
// starts from the same live heap.
func measurePhase(wl workload, rec *obs.Recorder, d time.Duration) *phase {
	runtime.GC()
	before := readMetrics(heapAllocs, gcCycles)
	hs := startHeapSampler()
	ph := wl.run(rec, d, hs)
	hs.halt()
	after := readMetrics(heapAllocs, gcCycles)
	ops := float64(max(len(ph.opMS), 1))
	ph.meanHeapMB = float64(hs.total) / float64(max(hs.samples, 1)) / mb
	ph.setLayer("go.peak_heap_mb", float64(hs.peak)/mb)
	ph.setLayer("go.peak_live_mb", float64(hs.peakLive)/mb)
	ph.setLayer("go.alloc_mb", float64(after[0]-before[0]-hs.excluded[0])/mb/ops)
	ph.setLayer("go.gc_count", float64(after[1]-before[1]-hs.excluded[1])/ops)
	return ph
}

// timeUp reports whether a phase that started at start and ran ops
// operations should stop: every phase completes at least one operation.
func timeUp(start time.Time, d time.Duration, ops int) bool {
	return ops > 0 && time.Since(start) >= d
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// series collects per-operation samples under per-layer metric names.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// addRuntime adds the runtime counters and the memory-layer timings every
// recording workload reports.
func (s series) addRuntime(st core.Stats, snapMS, restoreMS float64) {
	s.add("core.quiescence_s", float64(st.QuiescenceNS)/1e9)
	s.add("core.epochs", float64(st.Epochs))
	s.add("core.replays", float64(st.Replays))
	s.add("core.divergences", float64(st.Divergences))
	s.add("mem.snapshot_ms", snapMS)
	s.add("mem.restore_ms", restoreMS)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs fn, records it as a child span of parent (nil-safe), and
// returns its duration.
func timed(parent *obs.Span, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	parent.Record(name, start, end)
	return end.Sub(start)
}
