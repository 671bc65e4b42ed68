package telemetry

import (
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestSpanRecIsSmallAndPointerFree holds the stored span to what makes
// it cheap: no field the collector must scan, and at most 64 bytes.
func TestSpanRecIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(spanRec{}); size > 64 {
		t.Errorf("spanRec is %d bytes, want at most 64", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("spanRec%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("", reflect.TypeOf(spanRec{}))
}

// FuzzRecorderMatchesReference records generated schedules — random
// pools, free (Cost 0) jobs, batch and named jobs, ports -1..3, faults
// that kill attempts — interleaved with free-form and wall spans, one
// call at a time and enough of them that every sequence crosses at
// least three full pages of the span store, into a Recorder and into
// the []Span reference it replaced, and wants the same spans, field for
// field and in order, and the same folds.
func FuzzRecorderMatchesReference(f *testing.F) {
	for _, s := range []struct {
		seed          uint64
		jobs, faults  uint8
		runs, records uint8
		bulk          uint16
	}{{1, 12, 0, 1, 0, 0}, {2, 30, 3, 2, 2, 700}, {3, 60, 6, 3, 4, 1023}, {4, 5, 9, 2, 1, 1}} {
		f.Add(s.seed, s.jobs, s.faults, s.runs, s.records, s.bulk)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nJobs, nFaults, nRuns, nRecords uint8, nBulk uint16) {
		rng := xrand.New(seed)
		rec, ref := New(), &refRecorder{}
		runs := int(nRuns%4) + 1
		bulk := 3*spanPage + int(nBulk)%spanPage
		for run := range runs {
			proc := "workflow:t" + strconv.Itoa(rng.Intn(2))
			if rng.Bool(0.3) {
				proc = "script:t" + strconv.Itoa(rng.Intn(2))
			}
			recordRun(t, rng, rec, ref, proc, int(nJobs%80)+1, int(nFaults%8))
			for k := rng.Intn(int(nRecords%5) + 1); k > 0; k-- {
				sp := Span{
					Proc: proc, Track: "store", Name: "hit:k" + strconv.Itoa(rng.Intn(3)), Cat: "lineage-hit",
					Worker: rng.Intn(3), Tuples: int64(rng.Intn(5)),
					HasVirt: rng.Bool(0.8), Virtual: Virt{Start: rng.Float64(), Dur: rng.Float64()},
				}
				if sp.HasWall = rng.Bool(0.5); sp.HasWall {
					sp.Clock = Wall{StartNS: int64(rng.Intn(1000)), DurNS: int64(rng.Intn(1000))}
				}
				rec.Record(sp)
				ref.Record(sp)
			}
			recordBulk(rng, rec, ref, proc, bulk*(run+1)/runs-bulk*run/runs)
		}
		if got, want := rec.Len(), len(ref.Spans()); got != want || got < 3*spanPage {
			t.Fatalf("Len %d, reference %d spans, want at least %d", got, want, 3*spanPage)
		}
		if got, want := rec.Spans(), ref.Spans(); !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("span %d = %+v, reference %+v", i, got[i], want[i])
				}
			}
			t.Fatalf("%d spans, reference %d", len(got), len(want))
		}
		if got, want := rec.TrackTotals(), ref.TrackTotals(); !slices.Equal(got, want) {
			t.Errorf("track totals = %+v, reference %+v", got, want)
		}
		if got, want := rec.Procs(), ref.Procs(); !slices.Equal(got, want) {
			t.Errorf("procs = %v, reference %v", got, want)
		}
		if got, want := rec.Dump(true).Volatile.WallTracks, ref.wallTracks(); !slices.Equal(got, want) {
			t.Errorf("wall tracks = %+v, reference %+v", got, want)
		}
	})
}

// recordBulk records n spans into rec and ref one call at a time: wall
// spans through RecordWall and free-form spans through Record.
func recordBulk(rng *xrand.Rand, rec *Recorder, ref *refRecorder, proc string, n int) {
	wall := rec.Lane(proc, "bulk", "wall")
	for range n {
		clock := Wall{StartNS: int64(rng.Intn(1e6)), DurNS: int64(rng.Intn(1e6))}
		if rng.Bool(0.5) {
			w, batches := rng.Intn(4), int64(rng.Intn(9)+1)
			rec.RecordWall(wall, w, batches, clock)
			ref.Record(Span{
				Proc: proc, Track: "bulk", Name: "bulk:wall", Cat: "wall", Worker: w, Tuples: batches,
				HasWall: true, Clock: clock,
			})
			continue
		}
		sp := Span{
			Proc: proc, Track: "bulk", Name: "cell" + strconv.Itoa(rng.Intn(20)), Cat: "cell",
			HasVirt: true, Virtual: Virt{Start: rng.Float64(), Dur: rng.Float64()},
			HasWall: rng.Bool(0.5), Clock: clock,
		}
		rec.Record(sp)
		ref.Record(sp)
	}
}

// recordRun generates one schedule and records it, and a wall span per
// pool and worker, the way dataflow does into rec and the way it did
// into ref.
func recordRun(t *testing.T, rng *xrand.Rand, rec *Recorder, ref *refRecorder, proc string, n, nFaults int) {
	t.Helper()
	type pool struct{ track, cat string }
	cats := []string{"source", "operator", "sink", "control", "task"}
	pools := make([]pool, rng.Intn(4)+1)
	simPools := make([]sim.Pool, len(pools))
	for i := range pools {
		pools[i] = pool{"op" + strconv.Itoa(rng.Intn(5)), xrand.Choice(rng, cats)}
		simPools[i] = sim.Pool{Name: "n" + strconv.Itoa(i), Slots: rng.Intn(3) + 1}
	}
	type meta struct {
		pool      int
		batch     bool
		port, seq int
	}
	jobs := make([]sim.Job, n)
	metas := make([]meta, n)
	names := make([]string, n)
	for i := range jobs {
		mt := meta{pool: rng.Intn(len(pools)), batch: rng.Bool(0.6), port: rng.Intn(5) - 1, seq: rng.Intn(50)}
		jobs[i] = sim.Job{Pool: int32(mt.pool)}
		if !rng.Bool(0.2) {
			jobs[i].Cost = uniform(rng, 0.01, 2)
		}
		if !mt.batch {
			names[i] = "job" + strconv.Itoa(rng.Intn(8))
		}
		for d := rng.Intn(3); d > 0 && i > 0; d-- {
			jobs[i].Deps = append(jobs[i].Deps, sim.JobID(rng.Intn(i)))
		}
		metas[i] = mt
	}
	faults := make([]sim.FaultEvent, nFaults)
	for i := range faults {
		faults[i] = sim.FaultEvent{At: uniform(rng, 0, float64(n)/2), Pool: sim.AnyPool, Salt: rng.Uint64(), LoseObjects: rng.Bool(0.3)}
	}
	sched, err := sim.ScheduleFaulty(jobs, simPools, faults, sim.RetryPolicy{MaxRetries: 64})
	if err != nil {
		t.Skip(err)
	}

	lanes := make([]Lane, len(pools))
	for i, p := range pools {
		lanes[i] = rec.Lane(proc, p.track, p.cat)
	}
	rec.RecordSchedule(jobs, sched, func(i int) (Lane, JobName) {
		if mt := metas[i]; mt.batch {
			return lanes[mt.pool], BatchName(mt.port, mt.seq)
		}
		return lanes[metas[i].pool], Named(names[i])
	})
	ref.Record(refScheduleSpans(nil, proc, jobs, sched, func(i int) (string, string, string) {
		mt := metas[i]
		p := pools[mt.pool]
		if mt.batch {
			return p.track, p.cat, refBatchName(p.track, mt.port, mt.seq)
		}
		return p.track, p.cat, names[i]
	})...)

	var walls []Span
	for i, p := range pools {
		wall := rec.Lane(proc, p.track, "wall")
		for w := range simPools[i].Slots {
			if rng.Bool(0.3) {
				continue
			}
			batches, clock := int64(rng.Intn(9)+1), Wall{StartNS: int64(rng.Intn(1e6)), DurNS: int64(rng.Intn(1e6))}
			rec.RecordWall(wall, w, batches, clock)
			walls = append(walls, Span{
				Proc: proc, Track: p.track, Name: p.track + ":wall",
				Cat: "wall", Worker: w, Tuples: batches,
				HasWall: true,
				Clock:   clock,
			})
		}
	}
	ref.Record(walls...)
}

// TestRecorderSpanBytesBudget feeds a recorder 100,000 spans one call
// at a time, half through RecordWall and half through Record, and holds
// what it allocates to the records themselves plus three pages, plus 16
// KiB for its page, lane and name tables: the last page's empty tail is
// under one page, and the first page's growth by append under two.
// Records grown by append took about five times the records.
func TestRecorderSpanBytesBudget(t *testing.T) {
	const spans = 100_000
	rec := New()
	wall := rec.Lane("workflow:dice", "join", "wall")
	cells := make([]Span, 8)
	for i := range cells {
		cells[i] = Span{Proc: "script:dice", Track: "kernel", Name: "cell" + strconv.Itoa(i), Cat: "cell", HasVirt: true}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range spans / 2 {
		rec.RecordWall(wall, i%4, 1, Wall{StartNS: int64(i), DurNS: 10})
		rec.Record(cells[i%len(cells)])
	}
	runtime.ReadMemStats(&after)
	size := int(unsafe.Sizeof(spanRec{}))
	budget := uint64((spans+3*spanPage)*size + 16<<10)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d spans of %d bytes allocated %d bytes of a %d budget", rec.Len(), size, got, budget)
	if got > budget {
		t.Errorf("%d spans of %d bytes allocated %d bytes, budget %d", rec.Len(), size, got, budget)
	}
}

// uniform draws a float64 uniformly distributed in [lo, hi).
func uniform(r *xrand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
