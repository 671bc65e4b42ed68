package core

import (
	"encoding/json"
	"testing"
)

// specSeeds are the bodies CI's service smoke posts and the specs
// benchmark/workloads.go sweeps, plus a few the decoder must refuse.
var specSeeds = []string{
	`{"task":"dice","paradigm":"workflow","size":400,"tenant":"ds-team"}`,
	`{"task":"wef","paradigm":"script","size":120,"tenant":"ml-team"}`,
	`{"task":"dice","workers":4096}`,
	`{"task":"kge","paradigm":"both","size":400}`,
	`{"api_version":"v1","task":"dice","paradigm":"workflow","size":200,"seed":1,"workers":4}`,
	`{"task":"dice","paradigm":"workflow","size":50,"workers":8,"optimize":true}`,
	`{"task":"dice","paradigm":"workflow","size":50,"workers":32,"nodes":4}`,
	`{"task":"dice","paradigm":"workflow","size":50,"workers":8,"fault_rate":6,"node_fraction":0.25,"checkpoint_every":4}`,
	`{"task":"gotta","paradigm":"both","size":16,"workers":4,"lineage":true,"telemetry":true}`,
	`{"task":"kge","paradigm":"script","size":6800,"workers":8,"priority":-1,"fault_seed":7,"shard_mem":1048576}`,
	`{"task":"dice","workers":48,"nodes":8,"shard_mem":1048576,"checkpoint_every":4}`,
	`{"api_version":"v2","task":"dice"}`,
	`{}`,
	`not json`,
}

// FuzzRunSpecDecode feeds POST /v1/runs bodies to the decode target:
// decoding never panics, and a spec Normalize accepts is a fixed point
// of Normalize, survives the wire (marshal → decode → Normalize)
// unchanged and compiles to a RunConfig.
func FuzzRunSpecDecode(f *testing.F) {
	for _, body := range specSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec RunSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		if again, err := norm.Normalize(); err != nil || again != norm {
			t.Fatalf("Normalize is not idempotent: %+v -> %+v (%v)", norm, again, err)
		}
		wire, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		var back RunSpec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("accepted spec does not decode from its own wire form %s: %v", wire, err)
		}
		if back, err = back.Normalize(); err != nil || back != norm {
			t.Fatalf("spec changed on the wire: %+v -> %s -> %+v (%v)", norm, wire, back, err)
		}
		if _, err := norm.Config(); err != nil {
			t.Fatalf("accepted spec %s has no Config: %v", wire, err)
		}
	})
}
