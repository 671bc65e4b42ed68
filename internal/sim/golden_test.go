package sim

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// The schedule golden pins everything Schedule and ScheduleFaulty
// report on seeded random DAGs, bit for bit: it was recorded at the
// commit before the event loop moved from JobID-keyed maps and
// container/heap to dense indices and typed heaps, so it is the proof
// that the move changed no simulated second. Floats are compared with
// ==, never a tolerance; -update re-records the file from the current
// tree and must leave it byte-identical.
//
// The cases are generated ID-keyed, as they were recorded: the sparse
// ones number their jobs with gaps and shuffle them. Each is renumbered
// densely in ascending-ID order before it is scheduled (positional),
// and positions are mapped back to IDs in the spans, the aborts and the
// retry policy's arguments. The schedule depends on IDs only through
// the (at, ID) order, which the renumbering keeps, so it is the same
// schedule bit for bit.

var update = flag.Bool("update", false, "re-record testdata/schedule_golden.json from the current tree (must leave it byte-identical)")

const goldenPath = "testdata/schedule_golden.json"

type goldenSpan struct {
	ID     JobID   `json:"id"`
	Start  float64 `json:"s"`
	Finish float64 `json:"f"`
}

type goldenRow struct {
	Case     string             `json:"case"`
	Makespan float64            `json:"makespan"`
	BusyTime map[string]float64 `json:"busy_time"`
	Aborts   []Abort            `json:"aborts"`
	Recovery Recovery           `json:"recovery"`
	Spans    []goldenSpan       `json:"spans"` // ascending ID, as positions are
}

// goldenCases spans the shapes the two entry points see: 50–2,000 jobs
// on 1–3 pools, IDs dense in slice order (what dataflow.Lower and
// raysim produce) or sparse and shuffled, with and without latencies,
// fault lists and a retry policy that charges delay and extra cost.
var goldenCases = []struct {
	seed      uint64
	jobs      int
	sparse    bool
	latencies bool
	faults    bool
	policy    bool
}{
	{seed: 1, jobs: 50},
	{seed: 2, jobs: 97, sparse: true, latencies: true},
	{seed: 3, jobs: 180, sparse: true, faults: true},
	{seed: 4, jobs: 333, latencies: true, faults: true, policy: true},
	{seed: 5, jobs: 620, sparse: true, latencies: true, faults: true, policy: true},
	{seed: 6, jobs: 1150, latencies: true},
	{seed: 7, jobs: 2000, sparse: true, latencies: true, faults: true, policy: true},
	{seed: 8, jobs: 400, sparse: true},
}

// goldenDAG builds a seeded random ID-keyed DAG. Half the costs come from a
// three-value grid and a tenth are zero, so equal finish and ready
// times — the (at, job) tie-breaks — occur constantly; the rest are
// arbitrary floats, so the order of every addition shows in the last
// bit. A sparse DAG numbers its jobs with gaps and shuffles them, so
// slice order, ID order and dependency order all differ.
func goldenDAG(seed uint64, n int, sparse, latencies bool) ([]refJob, []Pool) {
	r := xrand.New(seed)
	names := []string{"p0", "p1", "p2"}
	nPools := 1 + r.Intn(3)
	pools := make([]Pool, nPools)
	for i := range pools {
		pools[i] = Pool{Name: names[i], Slots: 1 + r.Intn(6)}
	}
	ids := make([]refJobID, n)
	for k := range ids {
		ids[k] = refJobID(k)
		if sparse {
			ids[k] = refJobID(10 + 13*k + r.Intn(13))
		}
	}
	if sparse {
		r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		// A declared pool no job uses: it gets no BusyTime entry.
		pools = append(pools, Pool{Name: "idle", Slots: 2})
	}
	grid := []float64{0.25, 0.5, 1}
	jobs := make([]refJob, n)
	for i := range jobs {
		j := refJob{ID: ids[i], Name: fmt.Sprintf("j%d", i), Pool: names[r.Intn(nPools)]}
		switch {
		case r.Bool(0.1):
		case r.Bool(0.5):
			j.Cost = xrand.Choice(r, grid)
		default:
			j.Cost = uniform(r, 0, 3)
		}
		if latencies && r.Bool(0.3) {
			j.Latency = uniform(r, 0, 1.5)
		}
		// Depend only on jobs earlier in the slice (acyclic), mostly
		// recent ones, as a pipeline's batches do.
		for d := 0; d < 3 && i > 0; d++ {
			if r.Bool(0.45) {
				back := 1 + r.Intn(min(i, 40))
				j.Deps = append(j.Deps, ids[i-back])
			}
		}
		jobs[i] = j
	}
	return jobs, pools
}

// positional renumbers an ID-keyed job set densely in ascending-ID
// order and resolves its pool names: job k of the result is the one
// with the k-th smallest ID, idOf[k] is that ID, and pos[i] is the
// position ref[i] went to.
func positional(ref []refJob, pools []Pool) (jobs []Job, idOf []JobID, pos []int) {
	order := make([]int, len(ref))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(ref[a].ID, ref[b].ID) })
	rank := make(map[refJobID]JobID, len(ref))
	idOf, pos = make([]JobID, len(ref)), make([]int, len(ref))
	for k, i := range order {
		rank[ref[i].ID], idOf[k], pos[i] = JobID(k), JobID(ref[i].ID), k
	}
	jobs = make([]Job, len(ref))
	for k, i := range order {
		r := &ref[i]
		j := Job{Cost: r.Cost, Latency: r.Latency, Pool: int32(slices.IndexFunc(pools, func(p Pool) bool { return p.Name == r.Pool }))}
		for _, d := range r.Deps {
			j.Deps = append(j.Deps, rank[d])
		}
		jobs[k] = j
	}
	return jobs, idOf, pos
}

// byID is the retry policy seen through IDs: it hands p the ID of the
// job at the position it is called with.
func byID(p RetryPolicy, idOf []JobID) RetryPolicy {
	return RetryPolicy{
		Delay:      func(i JobID, retry int) float64 { return p.Delay(idOf[i], retry) },
		ExtraCost:  func(i JobID, retry int, lost bool) float64 { return p.ExtraCost(idOf[i], retry, lost) },
		MaxRetries: p.MaxRetries,
	}
}

// busyByName is BusyTime keyed by pool name, with an entry for each pool
// some job runs on.
func busyByName(res *Result, jobs []Job, pools []Pool) map[string]float64 {
	m := make(map[string]float64, len(pools))
	for _, j := range jobs {
		m[pools[j.Pool].Name] = res.BusyTime[j.Pool]
	}
	return m
}

// goldenFaults spreads one fault per ~25 jobs over the clean makespan.
func goldenFaults(seed uint64, n int, makespan float64, pools []Pool) []FaultEvent {
	r := xrand.New(seed ^ 0xfa17)
	out := make([]FaultEvent, 1+n/25)
	for i := range out {
		f := FaultEvent{At: uniform(r, 0, makespan), Pool: AnyPool, Salt: r.Uint64(), LoseObjects: r.Bool(0.3)}
		if r.Bool(0.5) {
			f.Pool = int32(r.Intn(len(pools)))
		}
		out[i] = f
	}
	// Two faults at one instant: the second kills a job the first's
	// dispatch may just have started.
	out[len(out)-1].At = out[0].At
	return out
}

var goldenPolicy = RetryPolicy{
	Delay: func(id JobID, retry int) float64 { return 0.05*float64(retry) + 0.01*float64(id%7) },
	ExtraCost: func(id JobID, retry int, objectsLost bool) float64 {
		c := 0.02 * float64(retry)
		if objectsLost {
			c += 0.3
		}
		return c
	},
}

func goldenRun(t *testing.T) []goldenRow {
	t.Helper()
	var rows []goldenRow
	for _, c := range goldenCases {
		name := fmt.Sprintf("seed%d/jobs%d/sparse=%t/lat=%t/faults=%t/policy=%t",
			c.seed, c.jobs, c.sparse, c.latencies, c.faults, c.policy)
		ref, pools := goldenDAG(c.seed, c.jobs, c.sparse, c.latencies)
		jobs, idOf, _ := positional(ref, pools)
		res, err := Schedule(jobs, pools)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.faults {
			var retry RetryPolicy
			if c.policy {
				retry = byID(goldenPolicy, idOf)
			}
			res, err = ScheduleFaulty(jobs, pools, goldenFaults(c.seed, c.jobs, res.Makespan, pools), retry)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Recovery.Kills == 0 {
				t.Fatalf("%s: fault list killed nothing; the case pins no recovery path", name)
			}
		}
		row := goldenRow{
			Case: name, Makespan: res.Makespan, BusyTime: busyByName(res, jobs, pools),
			Aborts: res.Aborts, Recovery: res.Recovery,
		}
		for k := range row.Aborts {
			row.Aborts[k].Job = idOf[row.Aborts[k].Job]
		}
		for k, sp := range res.Spans {
			row.Spans = append(row.Spans, goldenSpan{ID: idOf[k], Start: sp.Start, Finish: sp.Finish})
		}
		rows = append(rows, row)
	}
	return rows
}

// encodeGolden writes one case per line, so a re-recording that moves
// anything shows as that case's line in the diff.
func encodeGolden(rows []goldenRow) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, row := range rows {
		b, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		if i < len(rows)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes(), nil
}

func TestScheduleGolden(t *testing.T) {
	got := goldenRun(t)
	if *update {
		data, err := encodeGolden(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases run, %d recorded", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Case != w.Case {
			t.Fatalf("case %d is %q, recorded %q", i, g.Case, w.Case)
		}
		if g.Makespan != w.Makespan {
			t.Errorf("%s: makespan %v, recorded %v", w.Case, g.Makespan, w.Makespan)
		}
		if len(g.BusyTime) != len(w.BusyTime) {
			t.Errorf("%s: busy time for %d pools, recorded %d", w.Case, len(g.BusyTime), len(w.BusyTime))
		}
		for pool, b := range w.BusyTime {
			if gb, ok := g.BusyTime[pool]; !ok || gb != b {
				t.Errorf("%s: busy time of %s %v (present %t), recorded %v", w.Case, pool, gb, ok, b)
			}
		}
		if g.Recovery != w.Recovery {
			t.Errorf("%s: recovery %+v, recorded %+v", w.Case, g.Recovery, w.Recovery)
		}
		if len(g.Aborts) != len(w.Aborts) {
			t.Errorf("%s: %d aborts, recorded %d", w.Case, len(g.Aborts), len(w.Aborts))
		} else {
			for k := range w.Aborts {
				if g.Aborts[k] != w.Aborts[k] {
					t.Errorf("%s: abort %d is %+v, recorded %+v", w.Case, k, g.Aborts[k], w.Aborts[k])
					break
				}
			}
		}
		if len(g.Spans) != len(w.Spans) {
			t.Errorf("%s: %d spans, recorded %d", w.Case, len(g.Spans), len(w.Spans))
			continue
		}
		for k := range w.Spans {
			if g.Spans[k] != w.Spans[k] {
				t.Errorf("%s: span %d is %+v, recorded %+v", w.Case, k, g.Spans[k], w.Spans[k])
				break
			}
		}
	}
}

// uniform draws a float64 uniformly distributed in [lo, hi).
func uniform(r *xrand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
