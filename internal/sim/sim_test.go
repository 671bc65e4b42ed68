package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func onePool(slots int) []Pool { return []Pool{{Name: "cpu", Slots: slots}} }

func TestSingleJob(t *testing.T) {
	res, err := Schedule([]Job{{ID: 1, Cost: 5, Pool: "cpu"}}, onePool(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5 {
		t.Fatalf("makespan = %v, want 5", res.Makespan)
	}
	if s := res.Spans[0]; s.Start != 0 || s.Finish != 5 {
		t.Fatalf("span = %+v", s)
	}
}

func TestChainIsSequential(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cost: 2, Pool: "cpu"},
		{ID: 2, Cost: 3, Pool: "cpu", Deps: []JobID{1}},
		{ID: 3, Cost: 4, Pool: "cpu", Deps: []JobID{2}},
	}
	res, err := Schedule(jobs, onePool(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 9 {
		t.Fatalf("makespan = %v, want 9", res.Makespan)
	}
}

func TestIndependentJobsRunInParallel(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cost: 4, Pool: "cpu"},
		{ID: 2, Cost: 4, Pool: "cpu"},
	}
	res, err := Schedule(jobs, onePool(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 4 {
		t.Fatalf("makespan = %v, want 4 with 2 slots", res.Makespan)
	}
	res1, err := Schedule(jobs, onePool(1))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Makespan != 8 {
		t.Fatalf("makespan = %v, want 8 with 1 slot", res1.Makespan)
	}
}

func TestLatencyDelaysStart(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cost: 2, Pool: "cpu"},
		{ID: 2, Cost: 1, Pool: "cpu", Deps: []JobID{1}, Latency: 3},
	}
	res, err := Schedule(jobs, onePool(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6 {
		t.Fatalf("makespan = %v, want 6 (2 work + 3 latency + 1 work)", res.Makespan)
	}
	if s := res.Spans[1]; s.Start != 5 {
		t.Fatalf("job 2 start = %v, want 5", s.Start)
	}
}

func TestLatencyDoesNotOccupySlot(t *testing.T) {
	// Job 2 waits on latency; job 3 should use the slot meanwhile.
	jobs := []Job{
		{ID: 1, Cost: 1, Pool: "cpu"},
		{ID: 2, Cost: 1, Pool: "cpu", Deps: []JobID{1}, Latency: 10},
		{ID: 3, Cost: 5, Pool: "cpu", Deps: []JobID{1}},
	}
	res, err := Schedule(jobs, onePool(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Spans[2]; s.Start != 1 {
		t.Fatalf("job 3 start = %v, want 1 (slot free during job 2 latency)", s.Start)
	}
	if res.Makespan != 12 {
		t.Fatalf("makespan = %v, want 12", res.Makespan)
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	// Two-stage pipeline over 4 batches with separate pools per stage.
	// Stage costs are 1s per batch, so the pipelined makespan should be
	// 4 + 1 = 5 rather than the sequential 8.
	var jobs []Job
	var prevB JobID = -1
	for b := 0; b < 4; b++ {
		a := JobID(2*b + 1)
		c := JobID(2*b + 2)
		ja := Job{ID: a, Cost: 1, Pool: "op1"}
		if prevB >= 0 {
			// Source emits batches in order; keep op1 sequential.
		}
		jobs = append(jobs, ja)
		jobs = append(jobs, Job{ID: c, Cost: 1, Pool: "op2", Deps: []JobID{a}})
		prevB = c
	}
	pools := []Pool{{Name: "op1", Slots: 1}, {Name: "op2", Slots: 1}}
	res, err := Schedule(jobs, pools)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5 {
		t.Fatalf("pipelined makespan = %v, want 5", res.Makespan)
	}
}

func TestCycleDetected(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cost: 1, Pool: "cpu", Deps: []JobID{2}},
		{ID: 2, Cost: 1, Pool: "cpu", Deps: []JobID{1}},
	}
	if _, err := Schedule(jobs, onePool(1)); err == nil {
		t.Fatal("expected cycle error")
	}
	if _, err := CriticalPath(jobs); err == nil {
		t.Fatal("expected cycle error from CriticalPath")
	}
}

func TestErrorCases(t *testing.T) {
	cases := []struct {
		name  string
		jobs  []Job
		pools []Pool
	}{
		{"duplicate job", []Job{{ID: 1, Pool: "cpu"}, {ID: 1, Pool: "cpu"}}, onePool(1)},
		{"unknown pool", []Job{{ID: 1, Pool: "gpu"}}, onePool(1)},
		{"unknown dep", []Job{{ID: 1, Pool: "cpu", Deps: []JobID{9}}}, onePool(1)},
		{"zero slots", []Job{{ID: 1, Pool: "cpu"}}, []Pool{{Name: "cpu", Slots: 0}}},
		{"negative cost", []Job{{ID: 1, Pool: "cpu", Cost: -1}}, onePool(1)},
		{"negative latency", []Job{{ID: 1, Pool: "cpu", Latency: -1}}, onePool(1)},
		{"duplicate pool", []Job{{ID: 1, Pool: "cpu"}}, []Pool{{Name: "cpu", Slots: 1}, {Name: "cpu", Slots: 2}}},
	}
	for _, c := range cases {
		if _, err := Schedule(c.jobs, c.pools); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCriticalPathChain(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cost: 2, Pool: "cpu"},
		{ID: 2, Cost: 3, Pool: "cpu", Deps: []JobID{1}, Latency: 1},
		{ID: 3, Cost: 1, Pool: "cpu"},
	}
	cp, err := CriticalPath(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 6 {
		t.Fatalf("critical path = %v, want 6", cp)
	}
}

func TestBusyTimeAndUtilization(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cost: 4, Pool: "cpu"},
		{ID: 2, Cost: 4, Pool: "cpu"},
	}
	res, err := Schedule(jobs, onePool(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.BusyTime["cpu"] != 8 {
		t.Fatalf("busy time = %v, want 8", res.BusyTime["cpu"])
	}
	if u := res.Utilization("cpu", 2); math.Abs(u-1) > 1e-12 {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

// randomDAG builds a deterministic random layered DAG for property
// testing.
func randomDAG(seed uint64) ([]Job, []Pool) {
	r := xrand.New(seed)
	nPools := 1 + r.Intn(3)
	pools := make([]Pool, nPools)
	names := []string{"p0", "p1", "p2"}
	for i := range pools {
		pools[i] = Pool{Name: names[i], Slots: 1 + r.Intn(4)}
	}
	n := 1 + r.Intn(40)
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		j := Job{
			ID:   JobID(i),
			Cost: r.Range(0, 10),
			Pool: names[r.Intn(nPools)],
		}
		if r.Bool(0.2) {
			j.Latency = r.Range(0, 2)
		}
		// Depend only on lower IDs: guaranteed acyclic.
		for d := 0; d < i; d++ {
			if r.Bool(0.08) {
				j.Deps = append(j.Deps, JobID(d))
			}
		}
		jobs[i] = j
	}
	return jobs, pools
}

func TestPropertyMakespanBounds(t *testing.T) {
	f := func(seed uint64) bool {
		jobs, pools := randomDAG(seed)
		res, err := Schedule(jobs, pools)
		if err != nil {
			return false
		}
		lb, err := LowerBound(jobs, pools)
		if err != nil {
			return false
		}
		var total float64
		for _, j := range jobs {
			total += j.Cost + j.Latency
		}
		const eps = 1e-9
		return res.Makespan >= lb-eps && res.Makespan <= total+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpansRespectDeps(t *testing.T) {
	f := func(seed uint64) bool {
		jobs, pools := randomDAG(seed)
		res, err := Schedule(jobs, pools)
		if err != nil {
			return false
		}
		const eps = 1e-9
		for _, j := range jobs {
			s := res.Spans[j.ID]
			if s.Finish-s.Start-j.Cost > eps || s.Finish-s.Start-j.Cost < -eps {
				return false
			}
			for _, d := range j.Deps {
				if s.Start < res.Spans[d].Finish+j.Latency-eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySlotCapacityNeverExceeded(t *testing.T) {
	f := func(seed uint64) bool {
		jobs, pools := randomDAG(seed)
		res, err := Schedule(jobs, pools)
		if err != nil {
			return false
		}
		slots := map[string]int{}
		for _, p := range pools {
			slots[p.Name] = p.Slots
		}
		// Check concurrency at every job start time.
		for _, j := range jobs {
			at := res.Spans[j.ID].Start
			counts := map[string]int{}
			for _, k := range jobs {
				s := res.Spans[k.ID]
				if s.Start <= at && at < s.Finish {
					counts[k.Pool]++
				}
			}
			for pool, c := range counts {
				if c > slots[pool] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMoreSlotsNeverSlower(t *testing.T) {
	f := func(seed uint64) bool {
		jobs, _ := randomDAG(seed)
		for i := range jobs {
			jobs[i].Pool = "cpu"
			// Zero latency: with a single pool and no latencies the
			// 1-slot makespan equals the total work, which upper-bounds
			// every greedy schedule, so monotonicity provably holds.
			// (With latencies Graham-style scheduling anomalies could
			// legitimately violate it.)
			jobs[i].Latency = 0
		}
		r1, err := Schedule(jobs, onePool(1))
		if err != nil {
			return false
		}
		r4, err := Schedule(jobs, onePool(4))
		if err != nil {
			return false
		}
		return r4.Makespan <= r1.Makespan+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicSchedules(t *testing.T) {
	jobs, pools := randomDAG(12345)
	r1, err := Schedule(jobs, pools)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Schedule(jobs, pools)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("non-deterministic makespan: %v vs %v", r1.Makespan, r2.Makespan)
	}
	for i, s := range r1.Spans {
		if r2.Spans[i] != s {
			t.Fatalf("non-deterministic span for job %d", jobs[i].ID)
		}
	}
}

func TestTotalWork(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cost: 2, Pool: "a"},
		{ID: 2, Cost: 3, Pool: "a"},
		{ID: 3, Cost: 4, Pool: "b"},
	}
	w := TotalWork(jobs)
	if w["a"] != 5 || w["b"] != 4 {
		t.Fatalf("work = %v", w)
	}
}
