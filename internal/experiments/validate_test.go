package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestValidatePlansClean is the plan-level acceptance gate: every
// registered task's workflow DAG must pass the static validator with
// zero diagnostics at a parallel worker count.
func TestValidatePlansClean(t *testing.T) {
	reports, err := ValidatePlans(Config{Scale: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("expected 4 task reports, got %d", len(reports))
	}
	for _, r := range reports {
		if r.Operators < 2 || r.Edges < 2 {
			t.Errorf("%s: implausible plan size (%d operators, %d edges)", r.Task, r.Operators, r.Edges)
		}
		if r.Workers < 2 {
			t.Errorf("%s: validated at workers=%d; partitioning rules need > 1", r.Task, r.Workers)
		}
		for _, d := range r.Diags {
			t.Errorf("%s: %s", r.Task, d)
		}
	}
}

// TestValidatePlansAboveLegacyCeiling: a sharded config may ask for
// more workers than the legacy tier's 32 vCPUs, and validating or
// statically optimizing its plans must build them at that count.
func TestValidatePlansAboveLegacyCeiling(t *testing.T) {
	rc := core.RunConfig{Nodes: 8, Workers: 64, Optimize: true}
	reports, err := ValidatePlans(Config{RunConfig: rc, Scale: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Workers != 64 {
			t.Errorf("%s: validated at workers=%d, want 64", r.Task, r.Workers)
		}
		for _, d := range r.Diags {
			t.Errorf("%s: %s", r.Task, d)
		}
	}
}
