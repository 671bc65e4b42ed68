package core

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

func TestNewRunConfigDefaults(t *testing.T) {
	cfg, err := NewRunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model == nil || cfg.Workers != 1 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if cfg.Faults.Enabled() {
		t.Fatal("default config has faults armed")
	}
}

func TestNewRunConfigOptions(t *testing.T) {
	rec := telemetry.New()
	m := cost.Default()
	cfg, err := NewRunConfig(WithModel(m), WithTelemetry(rec))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model != m || cfg.Telemetry != rec {
		t.Fatalf("options not applied: %+v", cfg)
	}
}

func TestNormalizeRejectsOversubscription(t *testing.T) {
	// The paper cluster has 4 workers x 8 vCPUs = 32.
	if _, err := (RunConfig{Workers: 33}).Normalize(); err == nil {
		t.Fatal("33 workers accepted on a 32-vCPU cluster")
	} else if !strings.Contains(err.Error(), "32") {
		t.Fatalf("error does not name the limit: %v", err)
	}
	if cfg, err := (RunConfig{Workers: 32}).Normalize(); err != nil || cfg.Workers != 32 {
		t.Fatalf("32 workers rejected: %v", err)
	}
}

func TestNormalizeRejectsBadFaultPlan(t *testing.T) {
	if _, err := (RunConfig{Faults: faults.Plan{NodeFraction: 2}}).Normalize(); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}
