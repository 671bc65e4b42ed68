package core

import (
	"errors"
	"strings"
	"testing"
)

// The sharded tier lifts the 32-vCPU ceiling: nodes × 8 workers are
// admitted once Nodes > 1, and the limit error names whatever ceiling
// the configured topology actually has.
func TestShardedTierLiftsWorkerCeiling(t *testing.T) {
	if _, err := (RunConfig{Workers: 64, Nodes: 8}).Normalize(); err != nil {
		t.Fatalf("64 workers rejected on an 8-node cluster: %v", err)
	}
	_, err := (RunConfig{Workers: 65, Nodes: 8}).Normalize()
	var tooMany *ErrTooManyWorkers
	if !errors.As(err, &tooMany) {
		t.Fatalf("want ErrTooManyWorkers, got %v", err)
	}
	if tooMany.Limit != 64 {
		t.Fatalf("limit = %d, want the 8-node ceiling 64", tooMany.Limit)
	}
	if !strings.Contains(err.Error(), "64") {
		t.Fatalf("error does not name the configured limit: %v", err)
	}
	if _, err := (RunConfig{Nodes: -1}).Normalize(); err == nil {
		t.Fatal("negative node count accepted")
	}
	if _, err := (RunConfig{ShardMemBytes: -1}).Normalize(); err == nil {
		t.Fatal("negative shard memory accepted")
	}
}

func TestRunSpecNodesRoundTrip(t *testing.T) {
	spec, err := RunSpec{Task: "dice", Workers: 48, Nodes: 8, ShardMem: 1 << 20}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	topo := cfg.Topology()
	if !topo.Sharded() || topo.NumNodes() != 8 {
		t.Fatalf("spec nodes did not reach the topology: %+v", topo)
	}
	if topo.WorkerMem() != 1<<20 {
		t.Fatalf("spec shard_mem did not reach the topology: %d", topo.WorkerMem())
	}
	// Beyond the legacy ceiling without nodes: rejected at the wire.
	if _, err := (RunSpec{Task: "dice", Workers: 48}).Normalize(); err == nil {
		t.Fatal("48 workers accepted without a sharded topology")
	}
}
