package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

func TestRunSpecNormalizeDefaults(t *testing.T) {
	s, err := RunSpec{Task: "dice"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := RunSpec{
		APIVersion: SpecVersion,
		Task:       "dice",
		Paradigm:   "both",
		Seed:       1,
		Workers:    1,
		Tenant:     DefaultTenant,
		FaultSeed:  1,
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("normalized spec %+v, want %+v", s, want)
	}
}

func TestRunSpecNormalizeRejects(t *testing.T) {
	for _, bad := range []RunSpec{
		{},                               // no task
		{Task: "dice", APIVersion: "v2"}, // future wire version
		{Task: "dice", Paradigm: "gui"},  // unknown paradigm
		{Task: "dice", Workers: -1},      // negative parallelism
		{Task: "dice", FaultRate: 1, NodeFraction: 2}, // bad fault plan
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("spec %+v normalized without error", bad)
		}
	}
}

func TestRunSpecWorkerLimitTyped(t *testing.T) {
	_, err := RunSpec{Task: "dice", Workers: 1 << 10}.Normalize()
	var tooMany *ErrTooManyWorkers
	if !errors.As(err, &tooMany) {
		t.Fatalf("want ErrTooManyWorkers, got %v", err)
	}
	if tooMany.Workers != 1<<10 || tooMany.Limit <= 0 {
		t.Fatalf("error carries %+v, want the offending count and a positive limit", tooMany)
	}
}

func TestRunSpecParadigms(t *testing.T) {
	for _, c := range []struct {
		paradigm string
		want     []Paradigm
	}{
		{"script", []Paradigm{Script}},
		{"workflow", []Paradigm{Workflow}},
		{"both", []Paradigm{Script, Workflow}},
	} {
		if got := (RunSpec{Paradigm: c.paradigm}).Paradigms(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Paradigms(%q) = %v, want %v", c.paradigm, got, c.want)
		}
	}
}

func TestRunSpecConfigConversion(t *testing.T) {
	spec := RunSpec{
		Task:            "dice",
		Workers:         4,
		FaultRate:       2,
		NodeFraction:    0.25,
		CheckpointEvery: 3,
		Lineage:         true,
		Telemetry:       true,
	}
	rc, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Workers != 4 {
		t.Fatalf("workers = %d, want 4", rc.Workers)
	}
	if rc.Faults.Rate != 2 || rc.Faults.CheckpointEvery != 3 || rc.Faults.NodeFraction != 0.25 {
		t.Fatalf("fault plan not carried over: %+v", rc.Faults)
	}
	if rc.Faults.Seed != 1 {
		t.Fatalf("fault seed = %d, want the spec seed default 1", rc.Faults.Seed)
	}
	if rc.Lineage == nil {
		t.Fatal("lineage store not armed")
	}
	if rc.Telemetry == nil {
		t.Fatal("telemetry recorder not armed")
	}

	// Extra options run after the spec's fields, so a caller's recorder
	// replaces the run-private one.
	mine := telemetry.New()
	rc, err = spec.Config(WithTelemetry(mine))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Telemetry != mine || rc.Workers != 4 {
		t.Fatalf("extra option did not attach the caller's recorder: %+v", rc)
	}

	// A plain spec arms nothing.
	rc, err = (RunSpec{Task: "dice"}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Faults.Rate != 0 || rc.Lineage != nil || rc.Telemetry != nil {
		t.Fatalf("plain spec armed extras: %+v", rc)
	}
}
