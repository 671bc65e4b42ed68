package raysim

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/objstore"
	"repro/internal/shard"
)

// objstoreID wraps a string as a single-element object ID list.
func objstoreID(s string) []objstore.ID { return []objstore.ID{objstore.ID(s)} }

func newCluster(t *testing.T, cpus int) *Cluster {
	t.Helper()
	c, err := NewCluster(nil, cpus, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidates(t *testing.T) {
	if _, err := NewCluster(nil, 0, 1<<20); err == nil {
		t.Fatal("expected error for zero CPUs")
	}
	if _, err := NewCluster(nil, 1, 0); err == nil {
		t.Fatal("expected error for zero store")
	}
	bad := cost.Default()
	bad.NetworkBytesPerSec = -1
	if _, err := NewCluster(bad, 1, 1<<20); err == nil {
		t.Fatal("expected error for invalid model")
	}
}

func TestEmptyJobRejected(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.NewJob().Run(); err == nil {
		t.Fatal("expected error for empty job")
	}
}

func TestBadDepRejected(t *testing.T) {
	c := newCluster(t, 2)
	j := c.NewJob()
	j.Submit(TaskSpec{Name: "t", Deps: []TaskID{5}})
	if _, err := j.Run(); err == nil {
		t.Fatal("expected error for unknown dependency")
	}
}

func TestNegativeFrameworkRejected(t *testing.T) {
	c := newCluster(t, 2)
	j := c.NewJob()
	j.Submit(TaskSpec{Name: "t", FrameworkSeconds: -1})
	if _, err := j.Run(); err == nil {
		t.Fatal("expected error for negative framework seconds")
	}
}

func TestParallelSpeedup(t *testing.T) {
	run := func(cpus int) float64 {
		c := newCluster(t, cpus)
		j := c.NewJob()
		for i := 0; i < 16; i++ {
			j.Submit(TaskSpec{Work: cost.Work{Interp: 1}})
		}
		res, err := j.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	t1, t4 := run(1), run(4)
	if t4 >= t1 {
		t.Fatalf("4 cpus (%v) not faster than 1 (%v)", t4, t1)
	}
	if math.Abs(t4-t1/4) > 0.2*t1 {
		t.Fatalf("speedup not near 4x: t1=%v t4=%v", t1, t4)
	}
}

func TestParallelTasksMetric(t *testing.T) {
	c := newCluster(t, 3)
	j := c.NewJob()
	for i := 0; i < 10; i++ {
		j.Submit(TaskSpec{Work: cost.Work{Interp: 1}})
	}
	res, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ParallelTasks != 3 {
		t.Fatalf("peak parallelism = %d, want 3", res.ParallelTasks)
	}
}

func TestDependencyChainSequential(t *testing.T) {
	c := newCluster(t, 8)
	j := c.NewJob()
	a := j.Submit(TaskSpec{Work: cost.Work{Interp: 1}})
	b := j.Submit(TaskSpec{Work: cost.Work{Interp: 1}, Deps: []TaskID{a}})
	j.Submit(TaskSpec{Work: cost.Work{Interp: 1}, Deps: []TaskID{b}})
	res, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 3 {
		t.Fatalf("chained makespan = %v, want >= 3", res.Makespan)
	}
	if res.ParallelTasks != 1 {
		t.Fatalf("chain peak parallelism = %d", res.ParallelTasks)
	}
}

func TestObjectGetsAddTime(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.Store().Put("model", 1<<28); err != nil {
		t.Fatal(err)
	}
	without := func() float64 {
		j := c.NewJob()
		j.Submit(TaskSpec{Work: cost.Work{Interp: 1}})
		res, _ := j.Run()
		return res.Makespan
	}()
	with := func() float64 {
		j := c.NewJob()
		j.Submit(TaskSpec{Work: cost.Work{Interp: 1}, Gets: objstoreID("model")})
		res, _ := j.Run()
		return res.Makespan
	}()
	if with <= without {
		t.Fatalf("object fetch added no time: %v vs %v", with, without)
	}
}

func TestMissingObjectRejected(t *testing.T) {
	c := newCluster(t, 1)
	j := c.NewJob()
	j.Submit(TaskSpec{Gets: objstoreID("missing")})
	if _, err := j.Run(); err == nil {
		t.Fatal("expected error for missing object")
	}
}

func TestTorchThrottling(t *testing.T) {
	// With the default model Ray pins torch to 1 core: framework work
	// runs at face value. A model allowing 8 cores must be faster.
	slow := cost.Default() // TorchCoresRay = 1
	fast := cost.Default()
	fast.TorchCoresRay = 8
	run := func(m *cost.Model) float64 {
		c, err := NewCluster(m, 1, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		j := c.NewJob()
		j.Submit(TaskSpec{FrameworkSeconds: 100})
		res, err := j.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	ts, tf := run(slow), run(fast)
	if tf >= ts {
		t.Fatalf("8-core torch (%v) should beat 1-core (%v)", tf, ts)
	}
	if ts/tf < 3 {
		t.Fatalf("torch speedup only %vx", ts/tf)
	}
}

func TestSpilledModelFetchSlower(t *testing.T) {
	// The GOTTA mechanism: a model larger than the store budget spills,
	// and every task's fetch pays the disk rate.
	small, err := NewCluster(nil, 1, 1<<20) // 1 MB store
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewCluster(nil, 1, 4<<30) // 4 GB store
	if err != nil {
		t.Fatal(err)
	}
	gb := float64(int64(1) << 30)
	model := int64(1.59 * gb)
	run := func(c *Cluster) float64 {
		if _, err := c.Store().Put("bart", model); err != nil {
			t.Fatal(err)
		}
		j := c.NewJob()
		for i := 0; i < 4; i++ {
			j.Submit(TaskSpec{Gets: objstoreID("bart"), Work: cost.Work{Interp: 1}})
		}
		res, err := j.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	spilled, resident := run(small), run(big)
	if spilled <= resident {
		t.Fatalf("spilled fetches (%v) should be slower than resident (%v)", spilled, resident)
	}
}

func TestNewClusterForBounds(t *testing.T) {
	for _, c := range []struct {
		topo shard.Topology
		max  int
	}{
		{shard.Topology{}, 32},
		{shard.Of(16), 128},
	} {
		if _, err := NewClusterFor(nil, c.topo, c.max); err != nil {
			t.Fatalf("num_cpus=%d on %+v: %v", c.max, c.topo, err)
		}
		if _, err := NewClusterFor(nil, c.topo, c.max+1); err == nil {
			t.Fatalf("num_cpus=%d on %+v accepted beyond the cluster", c.max+1, c.topo)
		}
	}
}
