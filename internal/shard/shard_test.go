package shard

import (
	"testing"

	"repro/internal/cost"
)

func TestTopologyTiers(t *testing.T) {
	for _, legacy := range []Topology{{}, {Nodes: 1}} {
		if legacy.Sharded() {
			t.Fatalf("%+v must be the legacy tier", legacy)
		}
		if got := legacy.TotalVCPUs(); got != 32 {
			t.Fatalf("legacy vCPU ceiling = %d, want the paper cluster's 32", got)
		}
		if legacy.WorkerMem() != 0 {
			t.Fatal("legacy tier must never spill (WorkerMem 0)")
		}
	}

	wide := Of(16)
	if !wide.Sharded() {
		t.Fatal("nodes=16 must be sharded")
	}
	if got := wide.TotalVCPUs(); got != 16*NodeVCPUs {
		t.Fatalf("sharded vCPU ceiling = %d, want %d", got, 16*NodeVCPUs)
	}
	// 60% of a 64 GB node shared by its 8 workers.
	if got, want := wide.WorkerMem(), int64(5153960755); got != want {
		t.Fatalf("sharded worker budget = %d, want %d", got, want)
	}
	if got := (Topology{Nodes: 16, WorkerMemBytes: 1 << 20}).WorkerMem(); got != 1<<20 {
		t.Fatalf("explicit worker budget = %d, want %d", got, 1<<20)
	}
}

func TestSplitOwnerInverse(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4, 7, 16} {
		topo := Of(nodes)
		for _, n := range []int{0, 1, 5, 16, 97, 1000} {
			parts := topo.Split(n)
			if len(parts) != topo.NumNodes() {
				t.Fatalf("Split(%d) over %d nodes returned %d parts", n, nodes, len(parts))
			}
			sum, min, max := 0, n, 0
			for _, p := range parts {
				sum += p
				if p < min {
					min = p
				}
				if p > max {
					max = p
				}
			}
			if sum != n {
				t.Fatalf("Split(%d) over %d nodes sums to %d", n, nodes, sum)
			}
			if n > 0 && max-min > 1 {
				t.Fatalf("Split(%d) over %d nodes is unbalanced: %v", n, nodes, parts)
			}
			// Owner must agree with the contiguous ranges Split defines.
			i := 0
			for node, count := range parts {
				for k := 0; k < count; k++ {
					if got := topo.Owner(i, n); got != node {
						t.Fatalf("Owner(%d, %d) over %d nodes = %d, want %d", i, n, nodes, got, node)
					}
					i++
				}
			}
		}
	}
}

func TestCrossBytes(t *testing.T) {
	const b = 1000
	cases := []struct {
		ex    Exchange
		nodes int
		want  int64
	}{
		{ExLocal, 4, 0},
		{ExHash, 1, 0},
		{ExHash, 4, 750},
		{ExRange, 4, 750},
		{ExHash, 10, 900},
		{ExBroadcast, 4, 3000},
		{ExBroadcast, 1, 0},
	}
	for _, c := range cases {
		if got := c.ex.CrossBytes(b, c.nodes); got != c.want {
			t.Errorf("%s.CrossBytes(%d, %d) = %d, want %d", c.ex, b, c.nodes, got, c.want)
		}
	}
	// More nodes cross more bytes, approaching (never reaching) all of
	// them for hash exchanges.
	prev := int64(-1)
	for nodes := 1; nodes <= 64; nodes++ {
		got := ExHash.CrossBytes(1<<20, nodes)
		if got < prev {
			t.Fatalf("hash cross bytes decreased at %d nodes", nodes)
		}
		if got >= 1<<20 {
			t.Fatalf("hash exchange crossed all bytes at %d nodes", nodes)
		}
		prev = got
	}
}

func TestPlanSpill(t *testing.T) {
	m := cost.Default()
	skew := 2.0 / SpillFanout

	// Fits in memory: no spill, no cost.
	p, err := PlanSpill(m, 1<<20, 1<<21, skew)
	if err != nil {
		t.Fatal(err)
	}
	if p.Spilled() || p.Seconds != 0 || p.SpilledBytes != 0 {
		t.Fatalf("in-memory state produced a spill plan: %+v", p)
	}

	// Over budget: one grace pass, real cost. At 4x budget the hot
	// partition (2/8 of state) exactly fits, so no recursion.
	p, err = PlanSpill(m, 4<<20, 1<<20, skew)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Spilled() || p.Passes != 2 {
		t.Fatalf("4 MiB over a 1 MiB budget should take one grace pass: %+v", p)
	}
	if p.SpilledBytes == 0 || p.Seconds <= 0 {
		t.Fatalf("grace pass priced nothing: %+v", p)
	}

	// Heavy skew: the hot partition alone exceeds the budget and is
	// recursively repartitioned.
	pr, err := PlanSpill(m, 4<<20, 1<<20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Passes != 3 {
		t.Fatalf("hot partition over budget should recurse: %+v", pr)
	}
	if pr.Seconds <= p.Seconds {
		t.Fatal("recursive repartitioning must cost more than one pass")
	}

	// Determinism: identical inputs, identical plans.
	again, err := PlanSpill(m, 4<<20, 1<<20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if again != pr {
		t.Fatalf("PlanSpill is not deterministic: %+v != %+v", again, pr)
	}

	// Monotonicity: more state never costs less.
	prevSecs := -1.0
	for _, state := range []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20} {
		p, err := PlanSpill(m, state, 1<<20, skew)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seconds < prevSecs {
			t.Fatalf("spill cost decreased at state %d", state)
		}
		prevSecs = p.Seconds
	}
}
