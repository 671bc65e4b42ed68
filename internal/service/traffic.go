package service

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Arrival is one open-loop request: a RunSpec arriving at a point on
// the traffic clock. The spec is the same wire shape POST /v1/runs
// decodes — the traffic generator speaks the public API.
type Arrival struct {
	At   float64      `json:"at"`
	Spec core.RunSpec `json:"spec"`
}

// TaskShare weights one task in the generated mix.
type TaskShare struct {
	Task   string
	Weight float64
	// Size overrides the task's default input size; <= 0 keeps it.
	Size int
}

// TrafficConfig shapes the synthetic workload.
type TrafficConfig struct {
	// Seed derives the whole stream; equal configs generate identical
	// traffic.
	Seed uint64
	// Jobs is the number of arrivals; 0 means 256.
	Jobs int
	// Rate is the mean arrival rate in jobs per second; 0 means 1.
	Rate float64
	// Tenants are drawn uniformly per arrival; empty means the four
	// default tenants.
	Tenants []string
	// Mix is the task mix; empty means DefaultMix(). Weights need not
	// sum to 1.
	Mix []TaskShare
}

// DefaultMix is a heavy-tailed mix over the four registered tasks:
// mostly cheap DICE/WEF traffic with a tail of expensive KGE and GOTTA
// jobs, the "many notebooks, few heavy training jobs" shape shared
// clusters see.
func DefaultMix() []TaskShare {
	return []TaskShare{
		{Task: "dice", Weight: 0.50},
		{Task: "wef", Weight: 0.27},
		{Task: "kge", Weight: 0.15},
		{Task: "gotta", Weight: 0.08},
	}
}

// workerTail is the heavy-tailed per-job vCPU demand: most jobs ask
// for one worker, a few ask for eight.
var workerTail = []struct {
	workers int
	weight  float64
}{
	{1, 0.55}, {2, 0.25}, {4, 0.14}, {8, 0.06},
}

// GenerateTraffic produces a deterministic open-loop arrival stream:
// Poisson arrivals (exponential inter-arrival gaps at cfg.Rate) with
// task, tenant, paradigm and worker demand drawn independently per
// job. Arrivals are returned in time order.
func GenerateTraffic(cfg TrafficConfig) ([]Arrival, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 256
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []string{"ds-team", "ml-team", "bi-team", "adhoc"}
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = DefaultMix()
	}
	taskWeights := make([]float64, len(cfg.Mix))
	for i, m := range cfg.Mix {
		if m.Task == "" || m.Weight <= 0 {
			return nil, fmt.Errorf("service: bad mix entry %+v", m)
		}
		taskWeights[i] = m.Weight
	}
	workerWeights := make([]float64, len(workerTail))
	for i, w := range workerTail {
		workerWeights[i] = w.weight
	}
	rng := xrand.New(cfg.Seed)
	tArr, tTask, tTen, tPar, tWork := rng.Split(), rng.Split(), rng.Split(), rng.Split(), rng.Split()

	out := make([]Arrival, 0, cfg.Jobs)
	now := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		// Exponential gap; 1-u is in (0, 1], keeping the log finite.
		now += -math.Log(1-tArr.Float64()) / cfg.Rate
		mix := cfg.Mix[tTask.WeightedIndex(taskWeights)]
		paradigm := "workflow"
		if tPar.Bool(0.5) {
			paradigm = "script"
		}
		spec := core.RunSpec{
			APIVersion: core.SpecVersion,
			Task:       mix.Task,
			Paradigm:   paradigm,
			Size:       mix.Size,
			Seed:       cfg.Seed,
			Workers:    workerTail[tWork.WeightedIndex(workerWeights)].workers,
			Tenant:     xrand.Choice(tTen, cfg.Tenants),
		}
		out = append(out, Arrival{At: now, Spec: spec})
	}
	slices.SortStableFunc(out, func(a, b Arrival) int { return cmp.Compare(a.At, b.At) })
	return out, nil
}

// RescaleRate returns a copy of arrivals with every timestamp scaled
// so the stream's mean rate becomes rate. Reusing one job sequence
// across a load sweep keeps the mixes identical between points — only
// the arrival tempo changes.
func RescaleRate(arrivals []Arrival, oldRate, rate float64) []Arrival {
	out := make([]Arrival, len(arrivals))
	copy(out, arrivals)
	if rate <= 0 || oldRate <= 0 {
		return out
	}
	f := oldRate / rate
	for i := range out {
		out[i].At *= f
	}
	return out
}
