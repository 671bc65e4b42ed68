package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/service"
)

// ---------------------------------------------------------------------------
// E13 — serving: latency, goodput and fairness versus offered load.
//
// The paper's workloads run once per invocation; a production workflow
// service runs thousands of them concurrently for many users. This
// experiment puts the fair-share scheduler in front of the measured
// engines: a synthetic open-loop traffic stream (Poisson arrivals,
// heavy-tailed task and worker mix over the four registered tasks,
// four equal-weight tenants) is swept across offered loads, and each
// point reports p50/p99 sojourn latency, goodput, admission rejections
// and Jain's fairness index over per-tenant served vCPU-seconds.
// Per-job service times are measured by running each (task, paradigm,
// workers) combination once through core — the simulation schedules
// real makespans, not guesses.

// ServingPoint is one offered-load measurement.
type ServingPoint struct {
	// Load is offered demand over the vCPU budget (1.0 = saturation).
	Load float64
	// RateJobsPerSec is the Poisson arrival rate realizing Load.
	RateJobsPerSec float64
	Arrivals       int
	Admitted       int
	Rejected       int
	Completed      int
	// P50/P99/Mean summarize sojourn time in sim seconds.
	P50Latency  float64
	P99Latency  float64
	MeanLatency float64
	// Goodput is completed admitted vCPU-seconds per sim second;
	// Utilization divides it by the budget.
	Goodput     float64
	Utilization float64
	// Jain is the fairness index over weight-normalized per-tenant
	// served vCPU-seconds (1 = perfectly fair).
	Jain float64
}

// ServingLoads is the experiment's offered-load sweep, as fractions of
// the admitted vCPU budget.
var ServingLoads = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0}

// servingJobs is the arrivals per sweep point. One job sequence is
// generated once and re-timed per load, so points differ only in
// arrival tempo.
const servingJobs = 320

// Serving sweeps offered load over the fair-share scheduler with
// measured per-job service times.
func Serving(cfg Config) ([]ServingPoint, error) {
	cfg = cfg.normalize()
	mix := service.DefaultMix()
	for i := range mix {
		size, err := core.TaskDefaultSize(mix[i].Task)
		if err != nil {
			return nil, err
		}
		mix[i].Size = cfg.scaled(size)
	}
	base, err := service.GenerateTraffic(service.TrafficConfig{
		Seed: cfg.Seed,
		Jobs: servingJobs,
		Rate: 1,
		Mix:  mix,
	})
	if err != nil {
		return nil, err
	}

	// Measure service times once per distinct (task, size, paradigm,
	// workers) the stream uses; the sim then schedules real makespans.
	costs := make(map[string]float64)
	cost := func(j *service.Job) float64 { return costs[costKey(j.Spec)] }
	var meanDemand float64
	for _, a := range base {
		c, err := measureCost(costs, a.Spec, cfg)
		if err != nil {
			return nil, err
		}
		meanDemand += c * float64(a.Spec.Workers)
	}
	meanDemand /= float64(len(base))

	svcCfg := service.Config{}
	budget := service.NewScheduler(svcCfg).Budget()
	var out []ServingPoint
	for _, load := range ServingLoads {
		rate := load * float64(budget) / meanDemand
		arrivals := service.RescaleRate(base, 1, rate)
		rep, err := service.Simulate(svcCfg, arrivals, cost)
		if err != nil {
			return nil, err
		}
		goodput := 0.0
		if rep.Makespan > 0 {
			goodput = rep.GoodputVCPUSeconds / rep.Makespan
		}
		out = append(out, ServingPoint{
			Load:           load,
			RateJobsPerSec: rate,
			Arrivals:       rep.Arrivals,
			Admitted:       rep.Admitted,
			Rejected:       rep.Rejected,
			Completed:      rep.Completed,
			P50Latency:     rep.P50Latency,
			P99Latency:     rep.P99Latency,
			MeanLatency:    rep.MeanLatency,
			Goodput:        goodput,
			Utilization:    rep.Utilization,
			Jain:           rep.Jain,
		})
	}
	return out, nil
}

func costKey(s core.RunSpec) string {
	return fmt.Sprintf("%s/%d/%s/%d", s.Task, s.Size, s.Paradigm, s.Workers)
}

// measureCost runs the spec's (task, paradigm, workers) combination
// through core once, memoized, and returns its simulated makespan.
func measureCost(costs map[string]float64, spec core.RunSpec, cfg Config) (float64, error) {
	key := costKey(spec)
	if c, ok := costs[key]; ok {
		return c, nil
	}
	results, err := spec.Run(core.WithModel(cfg.Model))
	if err != nil {
		return 0, err
	}
	var total float64
	for _, res := range results {
		total += res.SimSeconds
	}
	costs[key] = total
	return total, nil
}
