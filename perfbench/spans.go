package main

// Tracing output: a Chrome trace of the traced run (the benchmark's spans
// around each call into a layer, the runtime's epoch/quiescence/rollback
// spans, and, on service-analyze, the daemon's own per-job timelines) and a
// self-time table per layer.

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// pullTimeline fetches a finished job's span timeline from the daemon and
// returns it as spans on the client's track, anchored at the client's
// submission time.
func (w *serviceWL) pullTimeline(id uint64, submitted time.Time) ([]obs.SpanRecord, error) {
	var tl struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := w.call(http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d/timeline", id), nil, http.StatusOK, &tl); err != nil {
		return nil, err
	}
	spans := make([]obs.SpanRecord, len(tl.TraceEvents))
	for i, ev := range tl.TraceEvents {
		start := submitted.Add(time.Duration(ev.Ts * 1e3))
		spans[i] = obs.SpanRecord{Name: ev.Name, Start: start,
			End: start.Add(time.Duration(ev.Dur * 1e3))}
	}
	return spans, nil
}

// writeTrace writes the traced phase's Chrome trace and self-time table
// under out and prints the table.
func writeTrace(out, workload string, seed int64, spans []obs.SpanRecord) error {
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	var buf bytes.Buffer
	if err := obs.ChromeTrace(&buf, spans); err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", buf.Bytes(), 0o644); err != nil {
		return err
	}
	table := selfTimeTable(spans)
	fmt.Printf("chrome trace: %s.json (%d spans)\n%s", base, len(spans), table)
	return os.WriteFile(base+".selftime.txt", []byte(table), 0o644)
}

// daemonLayers maps the daemon's and the runtime's own span names (their
// first word) to layers.
var daemonLayers = map[string]string{
	"queued": "sched", "resolve": "server",
	"replay": "trace", "segment": "trace", "decode": "trace", "fold": "trace", "stitch": "trace",
	"execute": "core", "epoch": "core", "quiescence": "core", "rollback": "core",
	"merge": "analysis", "analyzer": "analysis",
}

// layerOf maps a span to its layer: the benchmark names its spans
// "<layer>.<call>", the daemon names a job's root span "<kind>/<trace>".
func layerOf(name string) string {
	word, _, _ := strings.Cut(name, " ")
	if l, _, ok := strings.Cut(word, "."); ok {
		return l
	}
	if strings.Contains(word, "/") {
		return "server"
	}
	if l, ok := daemonLayers[word]; ok {
		return l
	}
	return "other"
}

// selfTimeTable sums, per layer, span time and self time. Self time is
// exclusive wall time on a track: each instant counts for the innermost
// span open on that track (the latest started), so a span's self time is
// its duration minus what the spans inside it cover. Containment is by
// time, not parent links: a sink call the benchmark times inside an epoch
// counts against the epoch, and the daemon's job spans against the
// client's wait for the job.
func selfTimeTable(spans []obs.SpanRecord) string {
	type agg struct {
		n           int
		total, self time.Duration
	}
	layers := map[string]*agg{}
	layer := func(name string) *agg {
		l := layerOf(name)
		if layers[l] == nil {
			layers[l] = &agg{}
		}
		return layers[l]
	}
	tracks := map[int][]obs.SpanRecord{}
	for _, sp := range spans {
		a := layer(sp.Name)
		a.n++
		a.total += sp.Dur()
		tracks[sp.TID] = append(tracks[sp.TID], sp)
	}
	for _, track := range tracks {
		sort.Slice(track, func(i, j int) bool { return track[i].Start.Before(track[j].Start) })
		bounds := make([]time.Time, 0, 2*len(track))
		for _, sp := range track {
			bounds = append(bounds, sp.Start, sp.End)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i].Before(bounds[j]) })
		var open []obs.SpanRecord
		next := 0
		for k := 0; k+1 < len(bounds); k++ {
			lo, hi := bounds[k], bounds[k+1]
			if !lo.Before(hi) {
				continue
			}
			for next < len(track) && !track[next].Start.After(lo) {
				open = append(open, track[next])
				next++
			}
			still := open[:0]
			for _, sp := range open {
				if sp.End.After(lo) {
					still = append(still, sp)
				}
			}
			open = still
			if len(open) == 0 {
				continue
			}
			inner := open[0]
			for _, sp := range open[1:] {
				if sp.Start.After(inner.Start) || (sp.Start.Equal(inner.Start) && sp.End.Before(inner.End)) {
					inner = sp
				}
			}
			layer(inner.Name).self += hi.Sub(lo)
		}
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, l := range names {
		a := layers[l]
		fmt.Fprintf(&b, "  %-10s %8d %12.1f %12.1f\n", l, a.n, ms(a.total), ms(a.self))
	}
	return b.String()
}
