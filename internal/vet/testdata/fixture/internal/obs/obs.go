// Package obs is the fixture stand-in for the repo's internal/obs catalog:
// a Registry with the constructor shapes obsconst checks, and the M*
// constants forming the catalog.
package obs

type Registry struct{}

func (r *Registry) NewCounter(name, help string) int                        { return 0 }
func (r *Registry) NewCounterVec(name, help, label string) int              { return 0 }
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) int { return 0 }
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) int   { return 0 }
func (r *Registry) NewGaugeVecFunc(name, help, label string, fn func() map[string]float64) int {
	return 0
}
func (r *Registry) NewHistogram(name, help string) int { return 0 }

const (
	MRuns    = "fixture_runs_total"
	MDepth   = "fixture_queue_depth"
	MLatency = "fixture_latency_seconds"
)
