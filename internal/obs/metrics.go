package obs

// Standard instrument catalog. Library packages observe into these; the
// daemon's /metrics renders Default() after its own registry. Keeping the
// declarations in one place doubles as the metric inventory for
// docs/OBSERVABILITY.md.
//
// The M* constants below are the catalog proper: every metric family name
// in the repo — the library instruments declared in this file and the
// ir_served_* families the daemon registers in internal/server — must be
// spelled as one of these constants at its registration site. The ir-vet
// `obsconst` analyzer enforces that statically (the name argument of every
// Registry.New* call must be a compile-time constant, a member of this
// catalog, and clean under the LintName/LintLabel rules in rules.go), which
// makes this block the single source of truth for the exposition surface.

// Library instrument names.
const (
	MSchedQueueWait = "ir_sched_queue_wait_seconds"
	MSchedRun       = "ir_sched_run_seconds"

	MTraceHandleOpen = "ir_trace_handle_open_seconds"
	MTraceFrameFetch = "ir_trace_frame_fetch_seconds"
	MTraceInflate    = "ir_trace_inflate_seconds"
	MTraceCkptFold   = "ir_trace_checkpoint_fold_seconds"
	MStoreGC         = "ir_store_gc_seconds"

	MFlightRotate = "ir_flight_rotate_seconds"
	MFlightSpill  = "ir_flight_spill_seconds"

	MCoreEpoch      = "ir_core_epoch_seconds"
	MCoreQuiescence = "ir_core_quiescence_wait_seconds"
	MCoreRollbacks  = "ir_core_rollbacks_total"

	MAnalysisSegment   = "ir_analysis_segment_seconds"
	MAnalysisStateFold = "ir_analysis_state_fold_seconds"
	MAnalysisMerge     = "ir_analysis_merge_seconds"
)

// Daemon (ir-served) instrument names, registered by internal/server.
const (
	MServedHTTPLatency  = "ir_served_http_request_seconds"
	MServedHTTPRequests = "ir_served_http_requests_total"

	MServedQueueDepth     = "ir_served_queue_depth"
	MServedQueueLimit     = "ir_served_queue_limit"
	MServedWorkers        = "ir_served_workers"
	MServedJobsRunning    = "ir_served_jobs_running"
	MServedJobsTotal      = "ir_served_jobs_total"
	MServedJobsSubmitted  = "ir_served_jobs_submitted_total"
	MServedJobsRejected   = "ir_served_jobs_rejected_total"
	MServedEventsReplayed = "ir_served_events_replayed_total"

	MServedCacheHits      = "ir_served_store_cache_hits_total"
	MServedCacheMisses    = "ir_served_store_cache_misses_total"
	MServedCacheEvictions = "ir_served_store_cache_evictions_total"
	MServedCacheBytes     = "ir_served_store_cache_bytes"
	MServedCacheLimit     = "ir_served_store_cache_limit_bytes"
	MServedCacheHitRate   = "ir_served_store_cache_hit_rate"
	MServedCachedFrames   = "ir_served_store_cached_frames"

	MServedStoreBytes    = "ir_served_store_bytes"
	MServedStoreTraces   = "ir_served_store_traces"
	MServedTracesByTier  = "ir_served_store_traces_by_tier"
	MServedPinnedTraces  = "ir_served_store_pinned_traces"
	MServedGCRuns        = "ir_served_gc_runs_total"
	MServedGCReclaimed   = "ir_served_gc_reclaimed_bytes_total"
	MServedUptimeSeconds = "ir_served_uptime_seconds"
)

var (
	// Scheduler: queue wait (enqueue -> dispatch) and run time
	// (dispatch -> finish) per job kind.
	SchedQueueWait = Default().NewHistogramVec(MSchedQueueWait,
		"Time jobs spend queued before a worker picks them up.", "kind", nil)
	SchedRun = Default().NewHistogramVec(MSchedRun,
		"Wall time jobs spend executing on a worker.", "kind", nil)

	// Trace store and random-access handles.
	TraceHandleOpen = Default().NewHistogram(MTraceHandleOpen,
		"Time to open a random-access trace handle (index footer read + validation).", nil)
	TraceFrameFetch = Default().NewHistogramVec(MTraceFrameFetch,
		"Cache-miss frame fetch latency (pread + CRC + decode) by frame kind.", "kind", nil)
	TraceInflate = Default().NewHistogram(MTraceInflate,
		"Time to inflate a compressed frame payload.", nil)
	TraceCkptFold = Default().NewHistogram(MTraceCkptFold,
		"Time to materialize a checkpoint by folding deltas from the nearest keyframe.", nil)
	StoreGC = Default().NewHistogram(MStoreGC,
		"Duration of store retention GC passes.", nil)

	// Flight recorder.
	FlightRotate = Default().NewHistogram(MFlightRotate,
		"Duration of flight-recorder ring rotations (suffix rewrite + rename).", nil)
	FlightSpill = Default().NewHistogram(MFlightSpill,
		"Duration of flight-recorder spills into a trace store.", nil)

	// Recording runtime epoch machinery.
	CoreEpoch = Default().NewHistogram(MCoreEpoch,
		"Recorded epoch wall time, epoch begin to quiescent boundary.", nil)
	CoreQuiescence = Default().NewHistogram(MCoreQuiescence,
		"Time the coordinator waits for application threads to quiesce at an epoch boundary.", nil)
	CoreRollbacks = Default().NewCounter(MCoreRollbacks,
		"In-situ replay rollbacks (re-executions after a divergent replay attempt).")

	// Segment-parallel analysis (trace.AnalyzeSegments).
	AnalysisSegment = Default().NewHistogram(MAnalysisSegment,
		"Wall time of one analysis segment: checkpoint restore, replay, and tape capture.", nil)
	AnalysisStateFold = Default().NewHistogram(MAnalysisStateFold,
		"Time to round-trip the analyzer state chain (encode + decode) at a segment boundary.", nil)
	AnalysisMerge = Default().NewHistogram(MAnalysisMerge,
		"Time to fold one segment's observation tape into the analyzer chain.", nil)
)
