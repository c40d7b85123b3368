package main

// service-analyze: the record-once, analyze-many offline path through an
// in-process trace daemon (server.New over a trace.Store, two workers,
// reached over HTTP). Set-up records one x264 trace (branch-dense compute,
// moderate locking) with a checkpoint every epoch, so it splits into seven
// segments, and analyzes the nine-program ground-truth corpus. A closed-loop
// client then works through seed-shuffled rounds of a whole replay, a whole
// analysis and a segment-parallel analysis. Whole-trace jobs restore no
// checkpoint; segmented jobs are dominated by checkpoint fold and restore.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// serviceTrace is the stored x264 recording every timed job reads.
	serviceTrace = "x264"
	// serviceEventCap sizes x264's epochs so a recording has seven to nine,
	// seven about a third of the time; set-up records until the trace has
	// serviceEpochs epochs, each beginning with a checkpoint, and fails
	// after serviceRecordAttempts recordings of another shape.
	serviceEventCap       = 72
	serviceEpochs         = 7
	serviceRecordAttempts = 40
	// serviceWorkers is the daemon's worker count, one per host CPU.
	serviceWorkers = 2
	// serviceSegmentWorkers is a segmented analysis's own fan-out.
	serviceSegmentWorkers = 2
)

// jobKind is one of the three job kinds of the timed mix.
type jobKind struct {
	name string
	req  server.JobRequest
}

var serviceKinds = []jobKind{
	{"replay", server.JobRequest{Kind: "replay", Trace: serviceTrace}},
	{"analyze", server.JobRequest{Kind: "analyze", Trace: serviceTrace, Analyzers: "race,leak"}},
	{"segment_analyze", server.JobRequest{Kind: "analyze", Trace: serviceTrace, Analyzers: "race,leak",
		Segments: true, Workers: serviceSegmentWorkers}},
}

type serviceWL struct {
	cfg  config
	st   *trace.Store
	srv  *server.Server
	http *httptest.Server
	// findings is the whole-trace analysis of the stored trace, canonical;
	// every timed analysis must reproduce it.
	findings string
	nativeS  float64
	recorded server.RecordResult
	// rerecorded is the time set-up spent on recordings of the wrong shape.
	rerecorded time.Duration

	// daemonSpans are the daemon's own timelines of traced jobs.
	daemonSpans []obs.SpanRecord
}

func (w *serviceWL) extraSpans() []obs.SpanRecord { return w.daemonSpans }

func (w *serviceWL) discarded() time.Duration { return w.rerecorded }

func setupService(cfg config) (workload, checks, error) {
	var c checks
	// The stored trace's shape is pinned, so this workload ignores
	// cfg.scale: x264 runs its own 60 iterations, as the record job does.
	spec, mod, err := buildApp("x264", 60, 1)
	if err != nil {
		return nil, c, err
	}
	_, native, err := runNative(spec, mod, cfg.seed)
	if err != nil {
		return nil, c, fmt.Errorf("native run: %w", err)
	}
	st, err := trace.OpenStore(filepath.Join(cfg.dir, "store"))
	if err != nil {
		return nil, c, err
	}
	srv, err := server.New(server.Config{Store: st, Workers: serviceWorkers})
	if err != nil {
		return nil, c, err
	}
	w := &serviceWL{cfg: cfg, st: st, srv: srv, http: httptest.NewServer(srv), nativeS: native.Seconds()}

	// A recording's epoch count varies with the threads' interleaving, and
	// a segmented analysis's cost grows with the square of its segment
	// count; re-recording until the trace has serviceEpochs epochs keeps
	// every run's input the same shape. The number of attempts is chance,
	// so their time is left out of setup_s.
	for attempt := 1; ; attempt++ {
		start := time.Now()
		rj, err := w.do(server.JobRequest{Kind: "record", Record: server.RecordRequest{
			App: "x264", Name: serviceTrace, Seed: cfg.seed,
			EventCap: serviceEventCap, CheckpointEvery: 1,
		}})
		if err == nil {
			err = rj.err()
		}
		if err == nil {
			err = json.Unmarshal(rj.Result, &w.recorded)
		}
		if err != nil {
			w.close()
			return nil, c, fmt.Errorf("recording %s: %w", serviceTrace, err)
		}
		if w.recorded.Epochs == serviceEpochs {
			break
		}
		if attempt == serviceRecordAttempts {
			w.close()
			return nil, c, fmt.Errorf("recording %s: no recording in %d had %d epochs (last had %d)",
				serviceTrace, attempt, serviceEpochs, w.recorded.Epochs)
		}
		w.rerecorded += time.Since(start)
	}
	c.pass()
	if cfg.tamper {
		if err := flipByte(st.Path(serviceTrace)); err != nil {
			w.close()
			return nil, c, err
		}
	}
	ref, err := w.do(serviceKinds[1].req)
	if err == nil {
		err = ref.err()
	}
	if err == nil {
		w.findings, err = canonicalFindings(ref.Result)
	}
	c.check(err)
	c.add(w.checkCorpus())
	return w, c, nil
}

func (w *serviceWL) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = w.srv.Drain(ctx) // a drain that times out leaves nothing to report
	w.http.Close()
}

// checkCorpus records and analyzes every ground-truth corpus program
// through the daemon and requires its exact verdict: the known racing
// pairs and nothing else, the known leak count at the known sites.
func (w *serviceWL) checkCorpus() checks {
	var c checks
	for _, tc := range workloads.AnalysisCorpus() {
		res, err := w.do(server.JobRequest{Kind: "record",
			Record: server.RecordRequest{App: tc.Name, Seed: w.cfg.seed}})
		if err == nil {
			err = res.err()
		}
		if err == nil {
			res, err = w.do(server.JobRequest{Kind: "analyze", Trace: tc.Name})
		}
		if err == nil {
			err = res.err()
		}
		if err == nil {
			err = verdict(tc, res.Result)
		}
		c.check(err)
	}
	return c
}

func verdict(tc workloads.AnalysisCase, raw json.RawMessage) error {
	var res server.AnalyzeJobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return err
	}
	wantPairs := map[[2]string]bool{}
	for _, p := range tc.RacePairs {
		wantPairs[sortedPair(p[0], p[1])] = true
	}
	wantSites := map[string]bool{}
	for _, s := range tc.LeakSites {
		wantSites[s] = true
	}
	gotPairs, gotSites, leaks := map[[2]string]bool{}, map[string]bool{}, 0
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "race":
			if len(f.Sites) != 2 {
				return fmt.Errorf("%s: race finding with %d sites", tc.Name, len(f.Sites))
			}
			gotPairs[sortedPair(f.Sites[0].Func(), f.Sites[1].Func())] = true
		case "leak":
			leaks++
			if len(f.Sites) != 1 || len(f.Sites[0].Stack) == 0 {
				return fmt.Errorf("%s: leak finding without an allocation stack", tc.Name)
			}
			gotSites[f.Sites[0].Func()] = true
		}
	}
	if !sameKeys(gotPairs, wantPairs) || !sameKeys(gotSites, wantSites) || leaks != tc.Leaks {
		return fmt.Errorf("%s: verdict races %v leaks %d at %v, want races %v leaks %d at %v",
			tc.Name, gotPairs, leaks, gotSites, wantPairs, tc.Leaks, wantSites)
	}
	return nil
}

func sortedPair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

func sameKeys[K comparable](a, b map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// canonicalFindings renders an analyze result's findings in a canonical
// order, so whole-trace and segmented analyses compare byte for byte.
func canonicalFindings(raw json.RawMessage) (string, error) {
	var res server.AnalyzeJobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return "", err
	}
	lines := make([]string, len(res.Findings))
	for i, f := range res.Findings {
		b, err := json.Marshal(f)
		if err != nil {
			return "", err
		}
		lines[i] = string(b)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}

// jobInfo is the slice of a scheduler job snapshot the benchmark reads.
type jobInfo struct {
	ID     uint64          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func (j *jobInfo) err() error {
	if j.State != "done" {
		return fmt.Errorf("job %d ended %s: %s", j.ID, j.State, j.Error)
	}
	return nil
}

// do submits one job and waits for its terminal state over the job's
// NDJSON stream.
func (w *serviceWL) do(req server.JobRequest) (*jobInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var sub jobInfo
	if err := w.call(http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted, &sub); err != nil {
		return nil, err
	}
	return w.wait(sub.ID)
}

func (w *serviceWL) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, w.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.http.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func (w *serviceWL) wait(id uint64) (*jobInfo, error) {
	resp, err := w.http.Client().Get(fmt.Sprintf("%s/api/v1/jobs/%d/stream", w.http.URL, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %d stream: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	var last *jobInfo
	for {
		var info jobInfo
		if err := dec.Decode(&info); err != nil {
			if errors.Is(err, io.EOF) && last != nil {
				return last, nil
			}
			return nil, fmt.Errorf("job %d stream: %w", id, err)
		}
		last = &info
		if info.State == "done" || info.State == "failed" || info.State == "canceled" {
			return last, nil
		}
	}
}

// run is the closed loop: one client works through rounds of one job of
// every kind, in an order its seeded generator shuffles per round, and
// submits the next job only when the last one finished. The unit operation
// is a round, so the figures do not depend on which kinds a run happened to
// end on. A second concurrent client would make every latency depend on
// which job the other client happened to overlap: the guests' four threads
// and a segmented job's own fan-out already oversubscribe two host CPUs.
func (w *serviceWL) run(rec *obs.Recorder, d time.Duration, _ *heapSampler) *phase {
	ph := &phase{}
	s, exec := series{}, series{}
	before := w.st.Stats()
	var rounds []float64
	rng := rand.New(rand.NewSource(w.cfg.seed))
	start := time.Now()
	for r := 0; !timeUp(start, d, r); r++ {
		roundStart := time.Now()
		failed := ph.failed
		for _, k := range rng.Perm(len(serviceKinds)) {
			ph.check(w.runJob(rec, serviceKinds[k], s, exec))
		}
		// Only rounds whose every job passed are timed samples.
		if ph.failed == failed {
			rounds = append(rounds, ms(time.Since(roundStart)))
		}
	}
	ph.wall = time.Since(start)
	after := w.st.Stats()
	ph.opMS = rounds
	ph.busy = time.Duration(sum(rounds) * 1e6)
	ph.setMedians(s)
	for _, k := range serviceKinds {
		lat := s[k.name+"_p50_ms"]
		ph.addNamed(k.name+"_p50_ms", "ms", median(lat), len(lat))
	}
	ph.addNamed("jobs_per_s", "1/s", float64(ph.attempted-ph.failed)/ph.wall.Seconds(), ph.attempted)
	// Retries are rare, so their mean says more than their median.
	divs := s["core.divergences"]
	ph.setLayer("core.divergences", sum(divs)/float64(max(len(divs), 1)))
	ph.setLayer("analysis.callback_ms", median(exec["analyze"])-median(exec["replay"]))
	if fetches := (after.Hits + after.Misses) - (before.Hits + before.Misses); fetches > 0 {
		ph.setLayer("trace.cache_hit_rate", float64(after.Hits-before.Hits)/float64(fetches))
	}
	ph.setLayer("interp.native_s", w.nativeS)
	ph.setLayer("core.epochs", float64(w.recorded.Epochs))
	ph.setLayer("trace.checkpoints", float64(w.recorded.Checkpoints))
	return ph
}

// runJob runs one timed job and checks it: done, matched, and for analyses
// the reference findings. A job that passes adds its samples to s and its
// execute time, by kind, to exec.
func (w *serviceWL) runJob(rec *obs.Recorder, k jobKind, s, exec series) error {
	// The job's span holds the daemon's own timeline, pulled below; its self
	// time is the client's share: HTTP and the job stream.
	span := rec.Start("bench.job " + k.name)
	start := time.Now()
	info, err := w.do(k.req)
	latMS := ms(time.Since(start))
	span.End()
	if err == nil {
		err = info.err()
	}
	if err != nil {
		return err
	}
	// Replay results decode into the analyze shape with no findings.
	var res server.AnalyzeJobResult
	if err := json.Unmarshal(info.Result, &res); err != nil {
		return err
	}
	if !res.Matched || res.Timing == nil {
		return fmt.Errorf("job %d (%s) did not match the recording", info.ID, k.name)
	}
	if k.req.Kind == "analyze" {
		got, err := canonicalFindings(info.Result)
		if err != nil {
			return err
		}
		if got != w.findings {
			return fmt.Errorf("job %d (%s): findings differ from the whole-trace analysis", info.ID, k.name)
		}
	}
	// The stitch stage has no column in an analysis's timing rows; the
	// daemon's timeline, pulled in traced runs, has its spans.
	var stitchMS float64
	if rec != nil {
		spans, err := w.pullTimeline(info.ID, start)
		if err != nil {
			return err
		}
		for _, sp := range spans {
			if sp.Name == "stitch" {
				stitchMS += ms(sp.Dur())
			}
		}
		w.daemonSpans = append(w.daemonSpans, spans...)
	}
	t := res.Timing
	s.add(k.name+"_p50_ms", latMS)
	exec.add(k.name, t.ExecuteMS)
	s.add("core.divergences", float64(max(res.Attempts-1, 0)))
	s.add("sched.queue_ms", t.QueueMS)
	s.add("server.resolve_ms", t.ResolveMS)
	s.add("server.overhead_ms", latMS-t.QueueMS-t.ResolveMS-t.ExecuteMS)
	if k.req.Segments {
		var fold, decode, segExec, merge float64
		for _, sg := range t.Segments {
			fold += sg.FoldMS
			decode += sg.DecodeMS
			segExec += sg.ExecuteMS
			merge += sg.MergeMS
		}
		s.add("trace.fold_ms", fold)
		s.add("trace.decode_ms", decode)
		s.add("core.segment_exec_ms", segExec)
		s.add("analysis.merge_ms", merge)
		s.add("trace.stitch_ms", stitchMS)
	}
	return nil
}
