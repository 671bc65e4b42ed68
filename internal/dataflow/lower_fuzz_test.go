package dataflow

import (
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// randomTrace builds a seeded random trace of 1–8 nodes in one of the
// shapes a workflow census finds most (chains, fan-out, fan-in and
// diamonds) or a random DAG, some of whose nodes take two links from
// one producer. Node IDs are dense or leave gaps, as a trace under a
// lineage plan does for the nodes it skipped, and the nodes are listed
// out of order. Batch counts include zero (end-of-stream jobs), nodes
// run on 0–8 workers, some are fully blocking, spill or initialize
// per worker, and some sources are cache views: one worker whose only
// work is an artifact fetch.
func randomTrace(r *xrand.Rand) *Trace {
	n := 1 + r.Intn(8)
	var links [][2]int
	switch r.Intn(5) {
	case 0: // chain
		for i := 1; i < n; i++ {
			links = append(links, [2]int{i - 1, i})
		}
	case 1: // fan-out
		for i := 1; i < n; i++ {
			links = append(links, [2]int{0, i})
		}
	case 2: // fan-in
		for i := 0; i < n-1; i++ {
			links = append(links, [2]int{i, n - 1})
		}
	case 3: // diamond
		n = max(n, 3)
		for i := 1; i < n-1; i++ {
			links = append(links, [2]int{0, i}, [2]int{i, n - 1})
		}
	default:
		for to := 1; to < n; to++ {
			for from := 0; from < to; from++ {
				if r.Bool(0.35) {
					links = append(links, [2]int{from, to})
					if r.Bool(0.15) {
						links = append(links, [2]int{from, to}) // a self-join's second port
					}
				}
			}
		}
	}
	ids := make([]NodeID, n)
	gaps := r.Bool(0.4)
	for i := range ids {
		ids[i] = NodeID(i)
		if gaps {
			ids[i] = NodeID(3*i + r.Intn(3))
		}
	}
	ports := make([]int, n)
	tr := &Trace{Workflow: "fuzz"}
	for _, l := range links {
		e := EdgeTrace{From: ids[l[0]], To: ids[l[1]], Port: ports[l[1]]}
		ports[l[1]]++
		if !r.Bool(0.15) {
			e.Batches = int64(1 + r.Intn(30))
			e.Tuples = e.Batches * int64(1+r.Intn(500))
			e.Bytes = int64(r.Intn(1 << 22))
			if r.Bool(0.3) {
				e.ShuffleBytes = int64(r.Intn(int(e.Bytes) + 1))
			}
		}
		tr.Edges = append(tr.Edges, e)
	}
	r.Shuffle(len(tr.Edges), func(i, j int) { tr.Edges[i], tr.Edges[j] = tr.Edges[j], tr.Edges[i] })
	work := func() cost.Work {
		if r.Bool(0.15) {
			return cost.Work{}
		}
		return cost.Work{Interp: uniform(r, 0, 2), Mem: uniform(r, 0, 1)}
	}
	for i := range n {
		nt := NodeTrace{
			ID: ids[i], Name: "n" + string(rune('a'+i)), Kind: "operator",
			Language: cost.Language(r.Intn(4)), Parallelism: r.Intn(9),
			EndWork: work(),
		}
		if ports[i] == 0 {
			nt.Kind = "source"
			nt.EmittedBatches = int64(r.Intn(40))
			if r.Bool(0.3) { // a cache view
				nt.Parallelism = 1
				nt.EmittedBatches = int64(1 + r.Intn(3))
				nt.WorkByPort = []cost.Work{{Mem: uniform(r, 0, 0.5)}}
				nt.EndWork = cost.Work{}
				tr.Nodes = append(tr.Nodes, nt)
				continue
			}
		}
		for range max(ports[i], 1) - r.Intn(2) { // now and then a port with no work recorded
			nt.WorkByPort = append(nt.WorkByPort, work())
		}
		if r.Bool(0.4) {
			nt.OpenWork = work()
		}
		nt.FullyBlocking = r.Bool(0.2)
		if r.Bool(0.2) {
			nt.SpillSeconds = uniform(r, 0, 3)
		}
		tr.Nodes = append(tr.Nodes, nt)
	}
	r.Shuffle(n, func(i, j int) { tr.Nodes[i], tr.Nodes[j] = tr.Nodes[j], tr.Nodes[i] })
	return tr
}

func uniform(r *xrand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// FuzzLowerMatchesReference holds the group lowering and the schedule
// the engine runs on it to the per-job lowering it replaced
// (refLowerWithMeta) scheduled job by job, on randomTrace's traces.
// Lower's expanded jobs must be the reference's — pool, latency,
// dependencies and every cost bit — and each job's group must say what
// the reference's metadata said. Scheduled with and without a fault
// plan (none, checkpoints alone, or injecting, on one node or four),
// the makespan, the busy time of every pool, the aborts, the recovery
// totals, the recovery report and every span must be equal with ==,
// the schedule without spans must report the same, and the critical
// chain must be the reference's.
func FuzzLowerMatchesReference(f *testing.F) {
	for seed := range uint64(16) {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8) {
		r := xrand.New(seed)
		tr := randomTrace(r)
		m := cost.Default()
		refJobs, refPools, refMeta, refErr := refLowerWithMeta(tr, m)
		lw, err := lower(tr, m)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("lowering error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		jobs, pools, err := Lower(tr, m)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pools, refPools) || !slices.Equal(lw.pools, refPools) {
			t.Fatalf("pools %v, reference %v", pools, refPools)
		}
		if len(jobs) != len(refJobs) {
			t.Fatalf("%d jobs, reference %d", len(jobs), len(refJobs))
		}
		for i, want := range refJobs {
			got := jobs[i]
			if got.Cost != want.Cost || got.Latency != want.Latency || got.Pool != want.Pool || !slices.Equal(got.Deps, want.Deps) {
				t.Fatalf("job %d = %+v, reference %+v", i, got, want)
			}
			mt, seq := lw.job(sim.JobID(i))
			rm := refMeta[i]
			if mt.Node != rm.Node || mt.Port != rm.Port || mt.Kind != rm.Kind || (mt.Kind == jobBatch && int32(seq) != rm.Seq) {
				t.Fatalf("job %d is %+v seq %d, reference %+v", i, mt, seq, rm)
			}
		}

		var plan faults.Plan
		switch flags % 3 {
		case 1:
			plan.CheckpointEvery = 1 + r.Intn(4)
		case 2:
			plan = faults.Plan{Seed: r.Uint64(), Rate: uniform(r, 0.5, 20), NodeFraction: r.Float64(), MaxFaults: r.Intn(6), CheckpointEvery: r.Intn(4)}
		}
		topo := shard.Topology{Nodes: 1 + 3*int(flags/3%2)}
		var want *sim.Result
		var wantInfo *RecoveryInfo
		var wantErr error
		if plan.Enabled() {
			want, wantInfo, wantErr = refScheduleWithFaults(refJobs, refPools, refMeta, tr, m, plan, topo)
		} else {
			want, wantErr = sim.Schedule(refJobs, refPools)
		}
		schedule := func(spans bool) (*sim.Result, *RecoveryInfo, error) {
			lw, err := lower(tr, m)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Enabled() {
				return scheduleWithFaults(lw, tr, m, plan, topo, spans)
			}
			res, err := lw.graph().Schedule(lw.pools, nil, sim.RetryPolicy{}, spans)
			return res, nil, err
		}
		for _, spans := range []bool{true, false} {
			got, info, err := schedule(spans)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("spans %t: error %v, reference %v", spans, err, wantErr)
			}
			if err != nil {
				return
			}
			if got.Makespan != want.Makespan || !slices.Equal(got.BusyTime, want.BusyTime) ||
				got.Recovery != want.Recovery || !slices.Equal(got.Aborts, want.Aborts) {
				t.Fatalf("spans %t: makespan %v busy %v recovery %+v aborts %+v; reference %v %v %+v %+v",
					spans, got.Makespan, got.BusyTime, got.Recovery, got.Aborts, want.Makespan, want.BusyTime, want.Recovery, want.Aborts)
			}
			if (info == nil) != (wantInfo == nil) || (info != nil && *info != *wantInfo) {
				t.Fatalf("spans %t: recovery report %+v, reference %+v", spans, info, wantInfo)
			}
			if spans && !slices.Equal(got.Spans, want.Spans) {
				t.Fatalf("spans differ from the reference")
			}
			if !spans && got.Spans != nil {
				t.Fatalf("%d spans kept without being asked for", len(got.Spans))
			}
		}
		if plan.Enabled() {
			// The reference taxed its jobs in place; the chain is taken
			// over the same taxed costs.
			lw, err = lower(tr, m)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := scheduleWithFaults(lw, tr, m, plan, topo, false); err != nil {
				t.Fatal(err)
			}
		}
		chain, err := lw.graph().CriticalChain()
		wantChain, wantErr := sim.OfJobs(refJobs).CriticalChain()
		if err != nil || wantErr != nil || !slices.Equal(chain, wantChain) {
			t.Fatalf("critical chain %v (%v), reference %v (%v)", chain, err, wantChain, wantErr)
		}
	})
}
