package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/lineage"
	"repro/internal/telemetry"
)

// The option-building RunSpec.Config that the literal one replaced,
// with the knob options it folded the spec through, kept verbatim
// (renamed) as the oracle FuzzConfigMatchesReference holds Config to.

func refWithWorkers(n int) Option {
	return func(c *RunConfig) { c.Workers = n }
}

func refWithNodes(n int) Option {
	return func(c *RunConfig) { c.Nodes = n }
}

func refWithShardMem(bytes int64) Option {
	return func(c *RunConfig) { c.ShardMemBytes = bytes }
}

func refWithFaults(plan faults.Plan) Option {
	return func(c *RunConfig) { c.Faults = plan }
}

func refWithOptimize(on bool) Option {
	return func(c *RunConfig) { c.Optimize = on }
}

// refConfig converts the normalized spec into a RunConfig. extra options
// are applied after the spec's own, so servers can attach live objects
// (a shared telemetry recorder, a progress sink, a persistent lineage
// store) or override knobs the spec set.
func (s RunSpec) refConfig(extra ...Option) (RunConfig, error) {
	s, err := s.Normalize()
	if err != nil {
		return RunConfig{}, err
	}
	opts := []Option{refWithWorkers(s.Workers)}
	if s.Optimize {
		opts = append(opts, refWithOptimize(true))
	}
	if s.Nodes > 1 {
		opts = append(opts, refWithNodes(s.Nodes))
		if s.ShardMem > 0 {
			opts = append(opts, refWithShardMem(s.ShardMem))
		}
	}
	if plan := s.faultPlan(); plan.Rate > 0 || plan.CheckpointEvery > 0 {
		opts = append(opts, refWithFaults(plan))
	}
	if s.Lineage {
		store, err := lineage.NewStore(nil, 0)
		if err != nil {
			return RunConfig{}, err
		}
		opts = append(opts, WithLineage(store))
	}
	if s.Telemetry {
		opts = append(opts, WithTelemetry(telemetry.New()))
	}
	opts = append(opts, extra...)
	return NewRunConfig(opts...)
}

// FuzzConfigMatchesReference decodes a POST /v1/runs body, attaches the
// live objects the low bits of attach select (a cost model, a recorder,
// a lineage store), and holds Config to refConfig: the same error or
// none, the same attached objects, a model of the same value, a store
// and a recorder present in the same cases, and every other field
// equal.
func FuzzConfigMatchesReference(f *testing.F) {
	for i, body := range specSeeds {
		f.Add([]byte(body), uint8(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, attach uint8) {
		var spec RunSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		model := cost.Default()
		model.TaskOverhead *= 2
		rec := telemetry.New()
		store, err := lineage.NewStore(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var extra []Option
		if attach&1 != 0 {
			extra = append(extra, WithModel(model))
		}
		if attach&2 != 0 {
			extra = append(extra, WithTelemetry(rec))
		}
		if attach&4 != 0 {
			extra = append(extra, WithLineage(store))
		}
		got, gotErr := spec.Config(extra...)
		want, wantErr := spec.refConfig(extra...)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: Config error %v, reference %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(got.Model, want.Model) || (attach&1 != 0 && got.Model != model) {
			t.Fatalf("%s: Config model %+v, reference %+v", body, got.Model, want.Model)
		}
		if (got.Lineage == nil) != (want.Lineage == nil) || (attach&4 != 0 && got.Lineage != store) {
			t.Fatalf("%s: Config lineage %p, reference %p", body, got.Lineage, want.Lineage)
		}
		if (got.Telemetry == nil) != (want.Telemetry == nil) || (attach&2 != 0 && got.Telemetry != rec) {
			t.Fatalf("%s: Config telemetry %p, reference %p", body, got.Telemetry, want.Telemetry)
		}
		got.Model, got.Lineage, got.Telemetry = nil, nil, nil
		want.Model, want.Lineage, want.Telemetry = nil, nil, nil
		if got != want {
			t.Fatalf("%s: Config %+v\nreference %+v", body, got, want)
		}
	})
}
