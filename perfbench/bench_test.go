package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/hostrace"
)

// tinyScale shrinks every workload so a run takes about a second.
const tinyScale = 0.05

// skipIfRacy skips service-analyze under the host race detector: its set-up
// records and analyzes the analysis corpus, whose racy programs are genuine
// Go-level data races.
//
//ir:racy service-analyze runs the deliberately racy analysis corpus
func skipIfRacy(t *testing.T, workload string) {
	if hostrace.Enabled && workload == "service-analyze" {
		t.Skip("runs the deliberately racy analysis corpus")
	}
}

//ir:racy service-analyze runs the deliberately racy analysis corpus
func TestWorkloadsCheckTheirOutputs(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			skipIfRacy(t, def.name)
			res, err := runBenchmark(def.name, 7, 100*time.Millisecond, false, tinyScale, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("clean run: correct=%v failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("missing end-to-end metric %s", m.name)
				}
			}
		})
	}
}

// TestTamperRaisesFailFrac corrupts one input per workload (a flipped byte in
// a stored trace, or the module without its implanted bug) and requires the
// checks to count failures.
//
//ir:racy service-analyze runs the deliberately racy analysis corpus
func TestTamperRaisesFailFrac(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			skipIfRacy(t, def.name)
			res, err := runBenchmark(def.name, 7, 100*time.Millisecond, false, tinyScale, true, t.TempDir())
			if err == nil {
				t.Fatal("tampered run reported no failure")
			}
			if res == nil {
				t.Fatalf("tampered run stopped before its checks: %v", err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("tampered run passed: failed %d of %d", res.Failed, res.Attempted)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	out := t.TempDir()
	res, err := runBenchmark("insitu-replay", 7, 100*time.Millisecond, true, tinyScale, false, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("missing per-layer metric %s", m.name)
		}
	}
	for _, ext := range []string{".json", ".selftime.txt"} {
		if _, err := os.Stat(filepath.Join(out, "traces", "insitu-replay-seed7"+ext)); err != nil {
			t.Error(err)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := runBenchmark("no-such-workload", 1, time.Second, false, 1, false, t.TempDir()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
