// Package faults defines deterministic fault plans for the simulated
// cluster. A Plan is seeded configuration, not state: expanding it
// against a schedule horizon yields a reproducible sequence of fault
// events on the sim virtual clock — task kills and node losses — that
// the two execution paradigms recover from in their own idiom (lineage
// re-execution with backoff for the Ray-style backend, checkpoint and
// restore for the dataflow engine).
//
// Faults act on the *schedule*, never on the data path: both engines
// compute their results in-process and deterministically, so a run
// under any fault plan produces output bit-identical to the
// failure-free run — only the simulated timeline (and the recovery
// work it contains) changes. The golden fault tests assert exactly
// that.
package faults

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// Kind classifies a fault event.
type Kind int

const (
	// KillTask kills one running task (script paradigm) or operator
	// worker (workflow paradigm); in-memory state of that attempt is
	// lost, everything else survives.
	KillTask Kind = iota
	// KillNode is a node-level fault: the killed work additionally
	// loses its node's object-store copies, so recovery pays
	// reconstruction on top of re-execution.
	KillNode
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KillTask:
		return "kill-task"
	case KillNode:
		return "kill-node"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault on the virtual clock.
type Event struct {
	// At is the virtual time the fault strikes.
	At float64
	// Kind distinguishes task kills from node losses.
	Kind Kind
	// Salt deterministically selects the victim among whatever happens
	// to be running when the fault strikes.
	Salt uint64
}

// Plan is a deterministic fault environment: how often faults strike,
// what fraction are node-level, and how recovery is configured. The
// zero value is fully disabled and adds exactly zero cost to a run.
type Plan struct {
	// Seed derives the event stream. Two runs with equal plans see
	// identical fault sequences.
	Seed uint64
	// Rate is the expected number of faults per 100 simulated seconds;
	// 0 disables injection.
	Rate float64
	// NodeFraction is the probability a fault is node-level (KillNode)
	// rather than a single task kill. Must be in [0, 1].
	NodeFraction float64
	// MaxFaults caps the number of generated events; 0 means no cap
	// beyond the horizon.
	MaxFaults int

	// CheckpointEvery is the dataflow engine's checkpoint epoch length
	// in batches per operator; 0 uses the engine default when the plan
	// is armed. Setting it with Rate == 0 arms checkpointing alone,
	// which is how the recovery experiment measures the pure
	// checkpoint-write tax.
	CheckpointEvery int
}

// The script paradigm's capped exponential retry backoff in seconds,
// mirroring Ray's task-retry defaults in spirit: quick first retry,
// bounded worst case.
const (
	backoffBase = 0.5
	backoffCap  = 8.0
)

// Enabled reports whether the plan changes anything at all: either
// faults are injected or checkpointing is armed.
func (p Plan) Enabled() bool { return p.Rate > 0 || p.CheckpointEvery > 0 }

// Injecting reports whether the plan generates fault events.
func (p Plan) Injecting() bool { return p.Rate > 0 }

// Validate reports an error for out-of-range fields.
func (p Plan) Validate() error {
	if p.Rate < 0 || math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
		return fmt.Errorf("faults: rate must be a finite non-negative number, got %g", p.Rate)
	}
	if p.NodeFraction < 0 || p.NodeFraction > 1 || math.IsNaN(p.NodeFraction) {
		return fmt.Errorf("faults: node fraction must be in [0, 1], got %g", p.NodeFraction)
	}
	if p.MaxFaults < 0 {
		return fmt.Errorf("faults: negative max faults %d", p.MaxFaults)
	}
	if p.CheckpointEvery < 0 {
		return fmt.Errorf("faults: negative checkpoint epoch %d", p.CheckpointEvery)
	}
	return nil
}

// Events expands the plan into its fault sequence over [0, horizon):
// a Poisson process with exponential inter-arrival times drawn from
// the plan's own SplitMix64 stream. The expansion is a pure function
// of (plan, horizon), which is what makes fault runs reproducible.
func (p Plan) Events(horizon float64) []Event {
	if !p.Injecting() || horizon <= 0 {
		return nil
	}
	rng := xrand.New(p.Seed ^ 0x6661756c74730a01) // domain-separate from data seeds
	mean := 100 / p.Rate
	var out []Event
	t := 0.0
	for {
		u := rng.Float64()
		for u == 0 { // guard log(0)
			u = rng.Float64()
		}
		t += -mean * math.Log(u)
		if t >= horizon {
			return out
		}
		kind := KillTask
		if rng.Float64() < p.NodeFraction {
			kind = KillNode
		}
		out = append(out, Event{At: t, Kind: kind, Salt: rng.Uint64()})
		if p.MaxFaults > 0 && len(out) >= p.MaxFaults {
			return out
		}
	}
}

// Schedule simulates g on pools under the plan, with every job's span
// when spans is set: the failure-free schedule fixes the fault horizon,
// the plan expands into events over that makespan, and only when one
// lands is the schedule re-run under them, killed jobs recovering by
// retry. A KillNode event reaches the retry policy's ExtraCost with
// objectsLost set; every event may strike any pool.
func (p Plan) Schedule(g sim.Graph, pools []sim.Pool, retry sim.RetryPolicy, spans bool) (*sim.Result, error) {
	clean, err := g.Schedule(pools, nil, sim.RetryPolicy{}, spans)
	if err != nil {
		return nil, err
	}
	evs := p.Events(clean.Makespan)
	if len(evs) == 0 {
		return clean, nil
	}
	strikes := make([]sim.FaultEvent, len(evs))
	for i, e := range evs {
		strikes[i] = sim.FaultEvent{At: e.At, Pool: sim.AnyPool, Salt: e.Salt, LoseObjects: e.Kind == KillNode}
	}
	return g.Schedule(pools, strikes, retry, spans)
}

// Backoff returns the delay before the retry-th re-execution
// (1-based): capped exponential growth.
func (p Plan) Backoff(retry int) float64 {
	if retry < 1 {
		retry = 1
	}
	d := backoffBase * math.Pow(2, float64(retry-1))
	if d > backoffCap {
		return backoffCap
	}
	return d
}
