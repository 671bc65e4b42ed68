package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func onePool(slots int) []Pool { return []Pool{{Name: "cpu", Slots: slots}} }

func TestSingleJob(t *testing.T) {
	res, err := Schedule([]Job{{Cost: 5}}, onePool(1))
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
		{Cost: 2},
		{Cost: 3, Deps: []JobID{0}},
		{Cost: 4, Deps: []JobID{1}},
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
		{Cost: 4},
		{Cost: 4},
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
		{Cost: 2},
		{Cost: 1, Deps: []JobID{0}, Latency: 3},
	}
	res, err := Schedule(jobs, onePool(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6 {
		t.Fatalf("makespan = %v, want 6 (2 work + 3 latency + 1 work)", res.Makespan)
	}
	if s := res.Spans[1]; s.Start != 5 {
		t.Fatalf("job 1 start = %v, want 5", s.Start)
	}
}

func TestLatencyDoesNotOccupySlot(t *testing.T) {
	// Job 1 waits on latency; job 2 should use the slot meanwhile.
	jobs := []Job{
		{Cost: 1},
		{Cost: 1, Deps: []JobID{0}, Latency: 10},
		{Cost: 5, Deps: []JobID{0}},
	}
	res, err := Schedule(jobs, onePool(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Spans[2]; s.Start != 1 {
		t.Fatalf("job 2 start = %v, want 1 (slot free during job 1 latency)", s.Start)
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
	for b := 0; b < 4; b++ {
		a := JobID(len(jobs))
		jobs = append(jobs, Job{Cost: 1, Pool: 0})
		jobs = append(jobs, Job{Cost: 1, Pool: 1, Deps: []JobID{a}})
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
		{Cost: 1, Deps: []JobID{1}},
		{Cost: 1, Deps: []JobID{0}},
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
		{"unknown pool", []Job{{Pool: 1}}, onePool(1)},
		{"negative pool", []Job{{Pool: -1}}, onePool(1)},
		{"unknown dep", []Job{{Deps: []JobID{9}}}, onePool(1)},
		{"negative dep", []Job{{}, {Deps: []JobID{-1}}}, onePool(1)},
		{"zero slots", []Job{{}}, []Pool{{Name: "cpu", Slots: 0}}},
		{"negative cost", []Job{{Cost: -1}}, onePool(1)},
		{"negative latency", []Job{{Latency: -1}}, onePool(1)},
		{"duplicate pool", []Job{{}}, []Pool{{Name: "cpu", Slots: 1}, {Name: "cpu", Slots: 2}}},
	}
	for _, c := range cases {
		if _, err := Schedule(c.jobs, c.pools); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCriticalPathChain(t *testing.T) {
	jobs := []Job{
		{Cost: 2},
		{Cost: 3, Deps: []JobID{0}, Latency: 1},
		{Cost: 1},
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
		{Cost: 4},
		{Cost: 4},
	}
	res, err := Schedule(jobs, onePool(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.BusyTime[0] != 8 {
		t.Fatalf("busy time = %v, want 8", res.BusyTime[0])
	}
	if u := res.Utilization(0, 2); math.Abs(u-1) > 1e-12 {
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
			Cost: r.Range(0, 10),
			Pool: int32(r.Intn(nPools)),
		}
		if r.Bool(0.2) {
			j.Latency = r.Range(0, 2)
		}
		// Depend only on earlier jobs: guaranteed acyclic.
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
		for i, j := range jobs {
			s := res.Spans[i]
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
		// Check concurrency at every job start time.
		for i := range jobs {
			at := res.Spans[i].Start
			counts := make([]int, len(pools))
			for k, job := range jobs {
				s := res.Spans[k]
				if s.Start <= at && at < s.Finish {
					counts[job.Pool]++
				}
			}
			for p, c := range counts {
				if c > pools[p].Slots {
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
			jobs[i].Pool = 0
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
			t.Fatalf("non-deterministic span for job %d", i)
		}
	}
}

func TestTotalWork(t *testing.T) {
	jobs := []Job{
		{Cost: 2, Pool: 0},
		{Cost: 3, Pool: 0},
		{Cost: 4, Pool: 1},
	}
	w := TotalWork(jobs, 2)
	if w[0] != 5 || w[1] != 4 {
		t.Fatalf("work = %v", w)
	}
}
