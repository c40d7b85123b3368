// Package metrics exercises the obsconst analyzer against the fixture
// catalog package.
package metrics

import "fixture/internal/obs"

var reg obs.Registry

var (
	runs    = reg.NewCounter(obs.MRuns, "runs")
	depth   = reg.NewGaugeFunc(obs.MDepth, "depth", nil)
	lat     = reg.NewHistogram(obs.MLatency, "latency")
	byShard = reg.NewCounterVec(obs.MRuns, "runs by shard", "shard")

	rogue    = reg.NewCounter("fixture_rogue_total", "not in the catalog")     //!want obsconst
	computed = reg.NewCounter(metricName(), "not a constant")                  //!want obsconst
	badKind  = reg.NewCounter(obs.MDepth, "counter without _total")            //!want obsconst
	badLabel = reg.NewCounterVec(obs.MRuns, "bad label", "__shard")            //!want obsconst
	badFunc  = reg.NewCounterFunc(obs.MDepth, "collector without _total", nil) //!want obsconst
	badVecFn = reg.NewGaugeVecFunc(obs.MDepth, "bad label", "__tier", nil)     //!want obsconst
)

func metricName() string { return "fixture_dynamic_total" }
