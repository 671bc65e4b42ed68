package core

import (
	"errors"
	"testing"

	"repro/internal/shard"
)

// TestRunSpecNormalizeNodeBoundaries pins the nodes field's boundary
// semantics: 0 and 1 are both the legacy paper cluster (32-vCPU
// ceiling), 2 flips to the sharded tier (nodes × 8 vCPUs), and a
// negative count is rejected outright.
func TestRunSpecNormalizeNodeBoundaries(t *testing.T) {
	for _, c := range []struct {
		nodes   int
		workers int
		ok      bool
	}{
		{0, shard.PaperWorkerVCPUs, true},      // legacy ceiling inclusive
		{0, shard.PaperWorkerVCPUs + 1, false}, // one past it
		{1, shard.PaperWorkerVCPUs, true},      // nodes=1 is still legacy
		{1, shard.PaperWorkerVCPUs + 1, false},
		{2, 16, true},  // sharded: 2×8 vCPUs exactly
		{2, 17, false}, // one past the sharded budget
		{-1, 1, false}, // negative node count
	} {
		_, err := (RunSpec{Task: "dice", Nodes: c.nodes, Workers: c.workers}).Normalize()
		if c.ok && err != nil {
			t.Errorf("nodes=%d workers=%d: unexpected error %v", c.nodes, c.workers, err)
		}
		if !c.ok && err == nil {
			t.Errorf("nodes=%d workers=%d: normalized without error", c.nodes, c.workers)
		}
	}
}

// TestRunSpecNormalizeWorkerLimitLift pins the sharded tier's lift: at
// N nodes the ceiling is exactly N×8, so a worker count the legacy
// tier rejects becomes valid once enough nodes back it.
func TestRunSpecNormalizeWorkerLimitLift(t *testing.T) {
	const workers = 64 // over the legacy 32, exactly 8 nodes' worth
	if _, err := (RunSpec{Task: "dice", Workers: workers}).Normalize(); err == nil {
		t.Fatalf("workers=%d passed on the legacy tier", workers)
	}
	if _, err := (RunSpec{Task: "dice", Workers: workers, Nodes: 8}).Normalize(); err != nil {
		t.Fatalf("workers=%d nodes=8 rejected: %v", workers, err)
	}
	if _, err := (RunSpec{Task: "dice", Workers: workers, Nodes: 7}).Normalize(); err == nil {
		t.Fatalf("workers=%d nodes=7 passed above the 56-vCPU budget", workers)
	}
}

// TestRunSpecNormalizeShardMem pins shard_mem boundary handling: zero
// keeps the node-shape default, a positive budget passes, a negative
// one is rejected at the API edge.
func TestRunSpecNormalizeShardMem(t *testing.T) {
	if _, err := (RunSpec{Task: "dice", Nodes: 2, ShardMem: 0}).Normalize(); err != nil {
		t.Fatalf("shard_mem=0 (default) rejected: %v", err)
	}
	if _, err := (RunSpec{Task: "dice", Nodes: 2, ShardMem: 1 << 20}).Normalize(); err != nil {
		t.Fatalf("positive shard_mem rejected: %v", err)
	}
	if _, err := (RunSpec{Task: "dice", Nodes: 2, ShardMem: -1}).Normalize(); err == nil {
		t.Fatal("negative shard_mem normalized without error")
	}
}

// TestRunSpecWorkerLimitMessage pins the typed error's wire-facing
// message and fields — the serving tier maps it to a 4xx body, so its
// shape is API surface.
func TestRunSpecWorkerLimitMessage(t *testing.T) {
	_, err := (RunSpec{Task: "dice", Workers: 33}).Normalize()
	var tooMany *ErrTooManyWorkers
	if !errors.As(err, &tooMany) {
		t.Fatalf("want ErrTooManyWorkers, got %v", err)
	}
	if tooMany.Workers != 33 || tooMany.Limit != shard.PaperWorkerVCPUs {
		t.Fatalf("error fields %+v, want workers 33 against the paper ceiling", tooMany)
	}
	const want = "core: worker count 33 exceeds the configured cluster's 32 worker vCPUs"
	if got := tooMany.Error(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}

	// The sharded tier reports its own lifted limit.
	_, err = (RunSpec{Task: "dice", Workers: 100, Nodes: 4}).Normalize()
	if !errors.As(err, &tooMany) {
		t.Fatalf("want ErrTooManyWorkers on the sharded tier, got %v", err)
	}
	if tooMany.Limit != 32 {
		t.Fatalf("sharded limit = %d, want 4 nodes x 8 vCPUs = 32", tooMany.Limit)
	}
}

// TestRunSpecNormalizeOptimizeCarried pins that the optimize knob
// survives Normalize and lands in the compiled RunConfig.
func TestRunSpecNormalizeOptimizeCarried(t *testing.T) {
	s, err := (RunSpec{Task: "dice", Optimize: true}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimize {
		t.Fatal("Normalize dropped the optimize flag")
	}
	rc, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Optimize {
		t.Fatal("Config dropped the optimize flag")
	}
	rc, err = (RunSpec{Task: "dice"}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Optimize {
		t.Fatal("plain spec armed the optimizer")
	}
}
