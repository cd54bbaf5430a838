package optimizer

import (
	"eva/internal/catalog"
	"eva/internal/costs"
)

// HealthView is the optimizer's window into physical-model health,
// implemented by udf.Domain (each session plans against its own). ModelHealthy gates candidate selection
// (a model whose circuit breaker is open cannot be the eval target);
// FailureRate feeds the Eq. 3 cost model so that the expected retry
// attempts of a flaky model count against it when ranking predicates
// and running Algorithm 2's set cover.
type HealthView interface {
	ModelHealthy(name string) bool
	FailureRate(name string) float64
}

// Degradation records one graceful-degradation decision: a logical
// task whose nominal choice was skipped because its breaker is open.
type Degradation struct {
	Logical string   // logical task (or call) being bound
	Skipped []string // unhealthy models passed over, nominal order
	Chosen  string   // the fallback that will evaluate
}

// modelHealthy reports whether the model may be chosen as an eval
// target. With no health view every model is healthy. View *sources*
// are never filtered: reading a broken model's materialized results is
// safe — only fresh evaluation routes through the breaker.
func (o *Optimizer) modelHealthy(name string) bool {
	return o.Health == nil || o.Health.ModelHealthy(name)
}

// evalCost is the Eq. 3 planning cost of one invocation of the model,
// inflated by its observed transient-failure rate (expected retries
// and backoff). A model that has never failed costs exactly its
// profiled cost, so healthy planning is unperturbed.
func (o *Optimizer) evalCost(def *catalog.UDF) float64 {
	if o.Health == nil {
		return def.Cost.Seconds()
	}
	return costs.RetryAdjustedCost(def.Cost, o.Health.FailureRate(def.Name)).Seconds()
}

// pickEval selects the eval model from accuracy-satisfying candidates
// (already sorted cheapest-first): the healthy candidate with the
// lowest retry-adjusted cost. Skipped unhealthy models are recorded in
// the report. Returns nil if every candidate's breaker is open.
func (o *Optimizer) pickEval(logical string, cands []*catalog.UDF, report *Report) *catalog.UDF {
	var best *catalog.UDF
	bestCost := 0.0
	var skipped []string
	for _, def := range cands {
		if !o.modelHealthy(def.Name) {
			skipped = append(skipped, def.Name)
			continue
		}
		if c := o.evalCost(def); best == nil || c < bestCost {
			best, bestCost = def, c
		}
	}
	if best != nil && len(skipped) > 0 && report != nil {
		report.Degraded = append(report.Degraded, Degradation{
			Logical: logical,
			Skipped: skipped,
			Chosen:  best.Name,
		})
	}
	return best
}
