package trace

// Parallel batch analysis over the store: the analyze-many half of the
// record-once/analyze-many workflow. Each job re-executes its trace once
// with a fresh analyzer set attached (analyzers are stateful, so jobs never
// share them) on the same bounded worker pool ReplayBatch uses — N traces,
// or N different analyses of one trace, are as embarrassingly parallel as
// N replays.

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/record"
)

// AnalyzeJob is one replay-with-analysis: a replay job plus an analyzer
// factory.
type AnalyzeJob struct {
	Job
	// NewAnalyzers builds this job's analyzer set; it is invoked once, on
	// the worker goroutine, so a shared factory must be safe for concurrent
	// calls (returning fresh analyzers each time, as analysis.FromSpec
	// composition does).
	NewAnalyzers func() []analysis.Analyzer
}

// AnalyzeResult is one job's outcome: the replay verdict plus the findings.
type AnalyzeResult struct {
	Name   string
	Report *core.Report
	// Findings aggregates every attached analyzer's report.
	Findings []analysis.Finding
	// Matched reports whether the recorded schedule (and summary, when
	// present) was reproduced; findings from an unmatched replay are not
	// produced.
	Matched bool
	// Err carries a failure to match — or, on a matched replay of a
	// fault-terminated trace, the reproduced fault.
	Err  error
	Wall time.Duration
	// Segments carries per-segment attribution when the result came from
	// AnalyzeSegments; nil for whole-trace jobs.
	Segments []SegmentAttribution
}

// AnalyzeBatch fans analysis jobs across the shared worker pool and blocks
// until every job finished. workers <= 0 selects GOMAXPROCS. Results are
// returned in job order; BatchStats aggregates them exactly as ReplayBatch
// does (Events counts recorded events re-executed under analysis).
func AnalyzeBatch(jobs []AnalyzeJob, workers int) ([]AnalyzeResult, BatchStats) {
	results := make([]AnalyzeResult, len(jobs))
	elapsed := runPool(len(jobs), workers, func(i int) {
		results[i] = runAnalyzeJob(&jobs[i])
	})

	stats := BatchStats{Jobs: len(jobs), Elapsed: elapsed}
	for i := range results {
		r := &results[i]
		stats.Work += r.Wall
		if !r.Matched {
			stats.Failed++
			continue
		}
		stats.Matched++
		stats.Events += jobs[i].Handle.EventCount()
		if r.Report != nil {
			stats.Attempts += int64(r.Report.Stats.LastReplayAttempts)
		}
	}
	return results, stats
}

func runAnalyzeJob(j *AnalyzeJob) (res AnalyzeResult) {
	res = AnalyzeResult{Name: j.Name}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()
	if err := j.validate(); err != nil {
		res.Err = err
		return res
	}
	if j.NewAnalyzers == nil {
		res.Err = fmt.Errorf("trace: analyze job %q has no analyzer factory", j.Name)
		return res
	}
	// Stream the trace through bounded epoch windows instead of pinning
	// every decoded frame for the run's whole duration: the flattener folds
	// each window into the replay-ready lists and releases it, so an indexed
	// handle's frame cache — not this worker — decides what stays resident.
	f := record.NewFlattener()
	first, last := j.Handle.EpochRange()
	const window = 16
	for lo := first; lo <= last && lo > 0; lo += window {
		hi := lo + window - 1
		if hi > last {
			hi = last
		}
		epochs, err := j.Handle.Epochs(lo, hi)
		if err != nil {
			res.Err = err
			return res
		}
		for _, ep := range epochs {
			f.Add(ep)
		}
	}
	fl, err := f.Flat()
	if err != nil {
		res.Err = err
		return res
	}
	rep, findings, err := analysis.RunFlat(j.Module, fl, j.Opts, j.Setup, j.NewAnalyzers()...)
	res.Report = rep
	res.Findings = findings
	if rep == nil {
		res.Err = err
		return res
	}
	res.Matched = true
	res.Err = err // a reproduced fault, when the trace recorded one
	if serr := j.compareSummary(rep); serr != nil {
		// The execution did not reproduce the recording; findings derived
		// from it are not evidence about the recorded run.
		res.Matched = false
		res.Err = serr
		res.Findings = nil
	}
	return res
}
