package server

// Server-side telemetry: the /metrics registry (every ir_served_* series,
// rendered through internal/obs so the exposition is lint-clean), per-route
// request latency instrumentation, and per-job span timelines served as
// Chrome trace-event JSON by GET /api/v1/jobs/{id}/timeline.
//
// The daemon's own series are collectors: each is registered once with a
// func that reads the authoritative source — the scheduler, the store, the
// Server's atomics — when /metrics renders, so nothing mirrors those
// counters by hand. handleMetrics renders the server registry followed by
// the process-wide obs.Default() registry (scheduler wait/run histograms,
// trace-layer and core-layer timings). Request latency and request counts
// are the only series observed on the hot path.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// serverMetrics is the daemon's /metrics registry: the HTTP families,
// observed per request, plus the collectors newServerMetrics registers.
type serverMetrics struct {
	reg *obs.Registry

	httpLatency *obs.HistogramVec
	httpReqs    *obs.CounterVec
}

func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	met := &serverMetrics{
		reg: r,
		httpLatency: r.NewHistogramVec(obs.MServedHTTPLatency,
			"API request latency by route.", "route", obs.DefBuckets),
		httpReqs: r.NewCounterVec(obs.MServedHTTPRequests,
			"API requests served, by route.", "route"),
	}

	r.NewGaugeFunc(obs.MServedQueueDepth, "Jobs waiting for a worker.",
		func() float64 { return float64(s.sched.Metrics().QueueDepth) })
	r.NewGaugeFunc(obs.MServedQueueLimit, "Queue capacity; submissions past it get 429.",
		func() float64 { return float64(s.sched.Metrics().QueueLimit) })
	r.NewGaugeFunc(obs.MServedWorkers, "Worker pool size.",
		func() float64 { return float64(s.sched.Metrics().Workers) })
	r.NewGaugeFunc(obs.MServedJobsRunning, "Jobs executing right now.",
		func() float64 { return float64(s.sched.Metrics().Running) })
	r.NewCounterVecFunc(obs.MServedJobsTotal, "Terminal jobs by final state.", "state",
		func() map[string]float64 {
			m := s.sched.Metrics()
			return map[string]float64{
				"done": float64(m.Done), "failed": float64(m.Failed), "canceled": float64(m.Canceled),
			}
		})
	r.NewCounterFunc(obs.MServedJobsSubmitted, "Jobs accepted into the queue.",
		func() float64 { return float64(s.sched.Metrics().Submitted) })
	r.NewCounterFunc(obs.MServedJobsRejected, "Submissions refused by backpressure.",
		func() float64 { return float64(s.sched.Metrics().Rejected) })
	r.NewCounterFunc(obs.MServedEventsReplayed,
		"Recorded events re-executed (or recorded) by completed jobs.",
		func() float64 { return float64(s.eventsReplayed.Load()) })

	r.NewCounterFunc(obs.MServedCacheHits, "Decode-cache hits.",
		func() float64 { return float64(s.store.Stats().Hits) })
	r.NewCounterFunc(obs.MServedCacheMisses, "Decode-cache misses.",
		func() float64 { return float64(s.store.Stats().Misses) })
	r.NewCounterFunc(obs.MServedCacheEvictions, "Decode-cache evictions.",
		func() float64 { return float64(s.store.Stats().Evictions) })
	r.NewGaugeFunc(obs.MServedCacheBytes, "Bytes of decoded frames cached.",
		func() float64 { return float64(s.store.Stats().CachedBytes) })
	r.NewGaugeFunc(obs.MServedCacheLimit, "Decode-cache byte budget.",
		func() float64 { return float64(s.store.Stats().LimitBytes) })
	r.NewGaugeFunc(obs.MServedCacheHitRate, "Decode-cache hits / loads since start.",
		func() float64 { return s.store.Stats().HitRate() })
	r.NewGaugeFunc(obs.MServedCachedFrames, "Decoded frames resident in the cache.",
		func() float64 { return float64(s.store.Stats().CachedFrames) })

	// Store collectors read the directory; a read error reports NaN
	// (unknown), or no tier samples, rather than a stale or zero figure.
	r.NewGaugeFunc(obs.MServedStoreBytes, "Summed size of stored trace files.", func() float64 {
		ds, err := s.store.DiskStats()
		if err != nil {
			return math.NaN()
		}
		return float64(ds.TotalBytes)
	})
	r.NewGaugeFunc(obs.MServedStoreTraces, "Stored traces.", func() float64 {
		ds, err := s.store.DiskStats()
		if err != nil {
			return math.NaN()
		}
		return float64(ds.Traces)
	})
	r.NewGaugeVecFunc(obs.MServedTracesByTier,
		"Traces by encoding tier (cold = compressed frame bodies).", "tier",
		func() map[string]float64 {
			entries, err := s.store.List()
			if err != nil {
				return nil
			}
			tiers := map[string]float64{"hot": 0, "cold": 0}
			for _, e := range entries {
				if e.Err == nil && e.Header.Compressed {
					tiers["cold"]++
				} else {
					tiers["hot"]++
				}
			}
			return tiers
		})
	r.NewGaugeFunc(obs.MServedPinnedTraces, "Traces pinned against retention GC.", func() float64 {
		pins, err := s.store.Pins()
		if err != nil {
			return math.NaN()
		}
		return float64(len(pins))
	})

	r.NewCounterFunc(obs.MServedGCRuns, "Retention GC passes completed.",
		func() float64 { return float64(s.gcRuns.Load()) })
	r.NewCounterFunc(obs.MServedGCReclaimed, "Bytes reclaimed by retention GC passes.",
		func() float64 { return float64(s.gcReclaimed.Load()) })
	r.NewGaugeFunc(obs.MServedUptimeSeconds, "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	return met
}

// route registers a handler wrapped with per-route instrumentation: a
// latency observation and request count under the route label, and a span
// in the server's bounded request-span ring. name must be low-cardinality
// (the route, never the path — path values carry trace names and job IDs).
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sp := s.reqSpans.Start("http " + name)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		defer func() {
			s.met.httpReqs.With(name).Inc()
			s.met.httpLatency.With(name).ObserveSince(start)
			sp.End()
		}()
		h(w, r)
	})
}

// handleMetrics renders the Prometheus text exposition: the daemon's own
// series (collectors evaluated now) followed by the process-wide
// obs.Default() registry — scheduler queue-wait/run histograms and the
// trace/core/flight layer timings.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Add("Content-Type", "text/plain; version=0.0.4")
	_ = s.met.reg.Render(w)
	_ = obs.Default().Render(w)
}

// --- per-job timelines ---

// maxTimelines bounds the per-job span recorders retained for the timeline
// endpoint; the oldest submission is evicted first.
const maxTimelines = 256

// jobSpanCap bounds one job's span ring; a segment replay emits ~5 spans
// per segment plus core epoch boundaries, so this covers large fan-outs
// before drop-oldest kicks in.
const jobSpanCap = 4096

// jobTel couples one job's span recorder with submission-time bookkeeping:
// the recorder is registered under the job ID at submit, and the queued
// interval (submit → worker pickup) becomes the root span's first child.
type jobTel struct {
	rec      *obs.Recorder
	submitAt time.Time
	name     string
}

func newJobTel(name string) *jobTel {
	return &jobTel{rec: obs.NewRecorder(jobSpanCap), submitAt: time.Now(), name: name}
}

// begin opens the job's root span when a worker picks the job up. The root
// covers queue wait plus execution (it starts at submission), with the
// wait itself visible as the "queued" child.
func (t *jobTel) begin() (*obs.Span, time.Time) {
	start := time.Now()
	root := t.rec.StartAt(t.name, t.submitAt)
	root.Record("queued", t.submitAt, start)
	return root, start
}

// timing summarizes the job for its JSON result: queue wait, resolve time
// (trace open + module rebuild; zero for jobs that resolve nothing), and
// the remaining execution.
func (t *jobTel) timing(runStart time.Time, resolve time.Duration) *JobTiming {
	return &JobTiming{
		QueueMS:   durMS(runStart.Sub(t.submitAt)),
		ResolveMS: durMS(resolve),
		ExecuteMS: durMS(time.Since(runStart) - resolve),
	}
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// JobTiming is the latency breakdown attached to every job result payload:
// where the wall-clock went, from submission to completion.
type JobTiming struct {
	// QueueMS is submission → worker pickup.
	QueueMS float64 `json:"queue_ms"`
	// ResolveMS is trace open + module rebuild (zero when the job resolves
	// no trace — record, compact).
	ResolveMS float64 `json:"resolve_ms,omitempty"`
	// ExecuteMS is the work itself.
	ExecuteMS float64 `json:"execute_ms"`
	// Segments breaks a segment-replay job down per segment.
	Segments []SegmentTiming `json:"segments,omitempty"`
}

// SegmentTiming is one segment's stage breakdown inside a segment-replay
// job result.
type SegmentTiming struct {
	Seg        int   `json:"seg"`
	FirstEpoch int64 `json:"first_epoch"`
	LastEpoch  int64 `json:"last_epoch"`
	// Stage milliseconds: checkpoint folds, epoch-slice decode, replay
	// execution, and the final-segment oracle check (interior segments
	// stitch inside execute).
	FoldMS    float64 `json:"fold_ms"`
	DecodeMS  float64 `json:"decode_ms"`
	ExecuteMS float64 `json:"execute_ms"`
	StitchMS  float64 `json:"stitch_ms"`
	// MergeMS is a segmented-analyze segment's share of the sequential
	// analyzer fold (tape re-delivery plus boundary state round-trip);
	// zero for segment-replay jobs.
	MergeMS float64 `json:"merge_ms,omitempty"`
	Matched bool    `json:"matched"`
}

// putTimeline retains a finished submission's span recorder under its job
// ID, evicting the oldest past maxTimelines.
func (s *Server) putTimeline(id uint64, rec *obs.Recorder) {
	if rec == nil {
		return
	}
	s.tlMu.Lock()
	defer s.tlMu.Unlock()
	s.timelines[id] = rec
	s.tlOrder = append(s.tlOrder, id)
	for len(s.tlOrder) > maxTimelines {
		delete(s.timelines, s.tlOrder[0])
		s.tlOrder = s.tlOrder[1:]
	}
}

// handleJobTimeline serves one job's span timeline as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto). The timeline is live —
// a running job shows its completed spans so far.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	s.tlMu.Lock()
	rec := s.timelines[id]
	s.tlMu.Unlock()
	if rec == nil {
		if _, err := s.sched.Info(id); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("job %d has no retained timeline (evicted, or telemetry disabled)", id))
		return
	}
	spans, dropped := rec.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if dropped > 0 {
		w.Header().Set("X-IR-Spans-Dropped", strconv.FormatUint(dropped, 10))
	}
	_ = obs.ChromeTrace(w, spans)
}

// handleDebugSpans serves the bounded ring of recent HTTP request spans as
// Chrome trace-event JSON — a cheap always-on view of what the API surface
// has been doing lately.
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	spans, dropped := s.reqSpans.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if dropped > 0 {
		w.Header().Set("X-IR-Spans-Dropped", strconv.FormatUint(dropped, 10))
	}
	_ = obs.ChromeTrace(w, spans)
}
