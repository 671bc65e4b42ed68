package sim

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
)

// This file keeps the ID-keyed scheduler the positional one replaced,
// verbatim except that every identifier carries a ref prefix: jobs
// carry an ID and a pool name, refJobIndex maps IDs back to positions,
// a map resolves pool names, and BusyTime is a map by pool name.
// FuzzScheduleMatchesReference holds Schedule and ScheduleFaulty to it
// bit for bit.

// FuzzScheduleMatchesReference holds Schedule and ScheduleFaulty to
// refSchedule on goldenDAG's seeded DAGs: dense ones (what
// dataflow.Lower and raysim produce) and sparse, shuffled ones that
// positional renumbers, on 1–3 pools, with zero and grid costs so that
// ties occur, with or without latencies, a fault list whose faults
// strike one pool or any, and a retry policy that charges delay and
// extra cost. The makespan, every span, the busy time of every pool by
// name, the aborts and the recovery totals must be equal with ==.
func FuzzScheduleMatchesReference(f *testing.F) {
	for _, c := range goldenCases {
		var flags uint8
		for bit, on := range []bool{c.sparse, c.latencies, c.faults, c.policy} {
			if on {
				flags |= 1 << bit
			}
		}
		f.Add(c.seed, uint16(c.jobs), flags)
	}
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, flags uint8) {
		n := 1 + int(size)%1000
		ref, pools := goldenDAG(seed, n, flags&1 != 0, flags&2 != 0)
		jobs, idOf, pos := positional(ref, pools)
		var faults []FaultEvent
		var refFaults []refFaultEvent
		if flags&4 != 0 {
			clean, err := refSchedule(ref, pools, nil, refRetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			faults = goldenFaults(seed, n, clean.Makespan, pools)
			for _, f := range faults {
				rf := refFaultEvent{At: f.At, Salt: f.Salt, LoseObjects: f.LoseObjects}
				if f.Pool != AnyPool {
					rf.Pool = pools[f.Pool].Name
				}
				refFaults = append(refFaults, rf)
			}
		}
		var retry RetryPolicy
		var refRetry refRetryPolicy
		if flags&8 != 0 {
			retry = byID(goldenPolicy, idOf)
			refRetry = refRetryPolicy{
				Delay: func(id refJobID, r int) float64 { return goldenPolicy.Delay(JobID(id), r) },
				ExtraCost: func(id refJobID, r int, lost bool) float64 {
					return goldenPolicy.ExtraCost(JobID(id), r, lost)
				},
			}
		}

		want, wantErr := refSchedule(ref, pools, refFaults, refRetry)
		got, err := ScheduleFaulty(jobs, pools, faults, retry)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got.Makespan != want.Makespan {
			t.Errorf("makespan %v, reference %v", got.Makespan, want.Makespan)
		}
		for i, sp := range want.Spans {
			if g := got.Spans[pos[i]]; g != sp {
				t.Fatalf("job %d: span %+v, reference %+v", ref[i].ID, g, sp)
			}
		}
		if busy := busyByName(got, jobs, pools); !maps.Equal(busy, want.BusyTime) {
			t.Errorf("busy time %v, reference %v", busy, want.BusyTime)
		}
		if got.Recovery != want.Recovery {
			t.Errorf("recovery %+v, reference %+v", got.Recovery, want.Recovery)
		}
		if len(got.Aborts) != len(want.Aborts) {
			t.Fatalf("%d aborts, reference %d", len(got.Aborts), len(want.Aborts))
		}
		for k, w := range want.Aborts {
			g := got.Aborts[k]
			if idOf[g.Job] != JobID(w.Job) || g.Attempt != w.Attempt || g.Start != w.Start || g.Killed != w.Killed || g.LostObjects != w.LostObjects {
				t.Fatalf("abort %d: %+v (job %d), reference %+v", k, g, idOf[g.Job], w)
			}
		}
	})
}

// refJobID identifies a job within one Schedule call.
type refJobID int

// refJob is one unit of simulated work.
type refJob struct {
	ID   refJobID // unique within the job set
	Name string   // optional label for traces and error messages
	Cost float64  // simulated seconds of exclusive work on one slot
	Pool string   // resource pool the job runs on

	// Deps lists jobs that must finish before this job may start.
	Deps []refJobID

	// Latency is extra delay (for example network transfer or
	// deserialization) between the last dependency finishing and the
	// job becoming ready. It does not occupy a slot.
	Latency float64
}

// refResult reports the outcome of a Schedule call.
type refResult struct {
	// Makespan is the finish time of the last job.
	Makespan float64
	// Spans[i] is the execution interval of the job at position i of the
	// scheduled slice (the final, successful attempt under fault
	// injection).
	Spans []Span
	// BusyTime is the total slot-seconds consumed per pool, including
	// the partial work of attempts later killed by faults. Pools no job
	// started on have no entry.
	BusyTime map[string]float64
	// Aborts lists killed attempts in kill order; empty without fault
	// injection.
	Aborts []refAbort
	// Recovery aggregates fault-recovery work; zero without injection.
	Recovery Recovery
}

// refEvent is one entry of the event heap or of a pool's ready queue.
// On the event heap it is a job completion, (job == wakeupEvent) a
// dispatch wakeup at the moment a queued job's latency elapses, or
// (job <= faultBase) a fault strike, carrying the fault's index as
// faultBase-job; attempt tags completions so a killed attempt's stale
// completion event can be recognized and dropped. On a ready queue it
// is a job waiting for a slot since at. Both order by (at, job); idx is
// the job's position in the job slice, so handling an event indexes
// state instead of looking the ID up.
type refEvent struct {
	at      float64
	job     refJobID
	idx     int32
	attempt int32
}

// refWakeupEvent marks events that exist only to trigger a dispatch at a
// job's ready time. Without them, a job whose latency-delayed ready
// time falls while other jobs are still running would not start until
// the next completion, even with free slots.
const refWakeupEvent = refJobID(-1)

// refFaultBase encodes fault indices into event job IDs: fault i is
// job faultBase-i. All faults sort below wakeupEvent, so at equal
// times a fault is processed before dispatches and completions — a
// job finishing the instant a fault strikes is killed, the harsher
// (and still deterministic) reading.
const refFaultBase = refJobID(-2)

func (e refEvent) before(o refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.job < o.job
}

// refEventHeap is a binary min-heap on (at, job): container/heap's
// algorithm over a concrete element type, so a push or pop boxes
// nothing.
type refEventHeap []refEvent

func (h *refEventHeap) push(e refEvent) {
	s := append(*h, e)
	*h = s
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !s[j].before(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *refEventHeap) pop() refEvent {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		m := 2*i + 1 // smaller child
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r].before(s[m]) {
			m = r
		}
		if !s[m].before(s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s[:n]
	return s[n]
}

// refJobIndex maps JobIDs to positions in a job slice. Lowered job sets
// number their jobs 0..n-1, so the common case is a flat table; sparse
// or negative IDs fall back to a map.
type refJobIndex struct {
	flat []int32 // position by ID, -1 where no job has it
	m    map[refJobID]int32
}

func newRefJobIndex(jobs []refJob) refJobIndex {
	lo, hi := refJobID(0), refJobID(-1)
	for i := range jobs {
		lo, hi = min(lo, jobs[i].ID), max(hi, jobs[i].ID)
	}
	if lo < 0 || int(hi) >= 4*len(jobs) {
		return refJobIndex{m: make(map[refJobID]int32, len(jobs))}
	}
	flat := make([]int32, hi+1)
	for i := range flat {
		flat[i] = -1
	}
	return refJobIndex{flat: flat}
}

// lookup returns the position of the job with this ID, or -1.
func (x *refJobIndex) lookup(id refJobID) int32 {
	if x.m != nil {
		if i, ok := x.m[id]; ok {
			return i
		}
		return -1
	}
	if id < 0 || int(id) >= len(x.flat) {
		return -1
	}
	return x.flat[id]
}

// set records position i for id, which must be one of the indexed jobs'.
func (x *refJobIndex) set(id refJobID, i int32) {
	if x.m != nil {
		x.m[id] = i
	} else {
		x.flat[id] = i
	}
}

// refJobState is the event loop's bookkeeping for one job, at the job's
// position in the job slice.
type refJobState struct {
	depFinish float64 // latest finish among the dependencies finished so far
	extra     float64 // retry cost added to the next attempt; 0 until a fault kills one
	pending   int32   // dependencies not yet finished
	pool      int32   // position of the job's pool
	attempt   int32   // attempts killed so far; 0 = first attempt
}

// refPoolState is one pool's slots and queue, at the pool's declared
// position.
type refPoolState struct {
	name  string
	free  int
	busy  float64      // slot-seconds consumed; BusyTime[name] once a job has started here
	used  bool         // some job started here
	ready refEventHeap // jobs waiting for a slot, in (ready time, ID) order
}

// refScheduler is the state of one schedule call. Jobs and pools are
// addressed by position throughout; IDs and names are resolved once,
// while the inputs are validated, and appear again only as the (at,
// job) ordering key and as the keys of the Result's BusyTime.
type refScheduler struct {
	jobs      []refJob
	state     []refJobState
	pools     []refPoolState
	refPoolAt map[string]int32
	// Job i's dependents are dependents[depOff[i]:depOff[i+1]].
	depOff     []int32
	dependents []int32
	events     refEventHeap
	now        float64
	res        *refResult
}

// refSchedule is the event loop behind Schedule and ScheduleFaulty. A
// fault-free call is the same loop with no fault events on the heap:
// every attempt counter stays 0 and every retry cost +0.
func refSchedule(jobs []refJob, pools []Pool, faults []refFaultEvent, retry refRetryPolicy) (*refResult, error) {
	s := &refScheduler{
		jobs:      jobs,
		state:     make([]refJobState, len(jobs)),
		pools:     make([]refPoolState, len(pools)),
		refPoolAt: make(map[string]int32, len(pools)),
		depOff:    make([]int32, len(jobs)+2),
		res: &refResult{
			Spans:    make([]Span, len(jobs)),
			BusyTime: make(map[string]float64, len(pools)),
		},
	}
	ix := newRefJobIndex(jobs)
	for i := range jobs {
		j := &jobs[i]
		if ix.lookup(j.ID) >= 0 {
			return nil, fmt.Errorf("sim: duplicate job id %d", j.ID)
		}
		if j.Cost < 0 {
			return nil, fmt.Errorf("sim: job %d (%s) has negative cost %g", j.ID, j.Name, j.Cost)
		}
		if j.Latency < 0 {
			return nil, fmt.Errorf("sim: job %d (%s) has negative latency %g", j.ID, j.Name, j.Latency)
		}
		ix.set(j.ID, int32(i))
	}
	for i, p := range pools {
		if p.Slots <= 0 {
			return nil, fmt.Errorf("sim: pool %q has %d slots", p.Name, p.Slots)
		}
		if _, dup := s.refPoolAt[p.Name]; dup {
			return nil, fmt.Errorf("sim: duplicate pool %q", p.Name)
		}
		s.refPoolAt[p.Name] = int32(i)
		s.pools[i] = refPoolState{name: p.Name, free: p.Slots}
	}

	// Validate references, resolving each to a position, and count every
	// job's dependents two places up in depOff (see the fill below).
	for i := range jobs {
		j := &jobs[i]
		pool, ok := s.refPoolAt[j.Pool]
		if !ok {
			return nil, fmt.Errorf("sim: job %d (%s) references unknown pool %q", j.ID, j.Name, j.Pool)
		}
		for _, d := range j.Deps {
			di := ix.lookup(d)
			if di < 0 {
				return nil, fmt.Errorf("sim: job %d (%s) depends on unknown job %d", j.ID, j.Name, d)
			}
			s.depOff[di+2]++
		}
		s.state[i] = refJobState{pool: pool, pending: int32(len(j.Deps))}
	}
	// Running sums make depOff[i+1] the start of job i's dependents;
	// filling a row advances it to the row's end, which is the start of
	// the next, so afterwards depOff[i] starts row i. Rows list dependents
	// in slice order.
	for i := 2; i < len(s.depOff); i++ {
		s.depOff[i] += s.depOff[i-1]
	}
	s.dependents = make([]int32, s.depOff[len(jobs)+1])
	for i := range jobs {
		for _, d := range jobs[i].Deps {
			di := ix.lookup(d)
			s.dependents[s.depOff[di+1]] = int32(i)
			s.depOff[di+1]++
		}
	}

	for i := range faults {
		s.events.push(refEvent{at: faults[i].At, job: refFaultBase - refJobID(i)})
	}
	// Jobs with no dependencies are ready at time 0 (plus latency).
	for i := range s.state {
		if s.state[i].pending == 0 {
			s.enqueue(int32(i), 0)
		}
	}

	s.dispatch()
	for finished := 0; finished < len(jobs); {
		// If no events are pending, advance time to the earliest ready
		// job.
		if len(s.events) == 0 {
			next := math.Inf(1)
			for i := range s.pools {
				if q := s.pools[i].ready; len(q) > 0 && q[0].at < next {
					next = q[0].at
				}
			}
			if math.IsInf(next, 1) {
				return nil, fmt.Errorf("sim: dependency cycle detected (%d of %d jobs stuck)", len(jobs)-finished, len(jobs))
			}
			s.now = next
			s.dispatch()
			continue
		}
		ev := s.events.pop()
		s.now = ev.at
		if ev.job <= refFaultBase {
			if err := s.strike(&faults[int(refFaultBase-ev.job)], &retry); err != nil {
				return nil, err
			}
			s.dispatch()
			continue
		}
		if ev.job == refWakeupEvent {
			s.dispatch()
			continue
		}
		st := &s.state[ev.idx]
		if ev.attempt != st.attempt {
			continue // stale completion of a killed attempt
		}
		s.pools[st.pool].free++
		finished++
		for _, dep := range s.dependents[s.depOff[ev.idx]:s.depOff[ev.idx+1]] {
			ds := &s.state[dep]
			if s.now > ds.depFinish {
				ds.depFinish = s.now
			}
			ds.pending--
			if ds.pending == 0 {
				s.enqueue(dep, ds.depFinish)
			}
		}
		s.dispatch()
	}
	s.res.Makespan = s.now
	for i := range s.pools {
		if p := &s.pools[i]; p.used {
			s.res.BusyTime[p.name] = p.busy
		}
	}
	return s.res, nil
}

// enqueue puts job i, whose last dependency finished at time at, on its
// pool's ready queue.
func (s *refScheduler) enqueue(i int32, at float64) {
	j := &s.jobs[i]
	readyAt := at + j.Latency
	s.pools[s.state[i].pool].ready.push(refEvent{at: readyAt, job: j.ID, idx: i})
	if readyAt > s.now {
		s.events.push(refEvent{at: readyAt, job: refWakeupEvent})
	}
}

// start runs job i on a free slot of its pool from the current time.
func (s *refScheduler) start(i int32) {
	j, st := &s.jobs[i], &s.state[i]
	p := &s.pools[st.pool]
	p.free--
	p.used = true
	c := j.Cost + st.extra
	fin := s.now + c
	s.res.Spans[i] = Span{Start: s.now, Finish: fin}
	p.busy += c
	s.events.push(refEvent{at: fin, job: j.ID, idx: i, attempt: st.attempt})
}

// dispatch starts every startable job at the current time, pool by
// pool in declared order. A job is startable when it is ready (ready
// time <= now) and its pool has a free slot; what starts in one pool
// never depends on another, so any fixed order gives the same schedule.
func (s *refScheduler) dispatch() {
	for i := range s.pools {
		p := &s.pools[i]
		for p.free > 0 && len(p.ready) > 0 && p.ready[0].at <= s.now {
			s.start(p.ready.pop().idx)
		}
	}
}

// strike applies one fault: pick a deterministic victim among the
// running jobs, discard its in-flight attempt, and re-queue it under
// the retry policy. Faults on an idle (or non-matching) system are
// no-ops.
//
// The running jobs are the completions on the event heap whose attempt
// is still current, and such an event's time is its attempt's start
// plus slot cost, so the loop keeps no separate record of them.
func (s *refScheduler) strike(f *refFaultEvent, retry *refRetryPolicy) error {
	pool, known := s.refPoolAt[f.Pool]
	var victims []refEvent
	for _, e := range s.events {
		if e.job < 0 || e.attempt != s.state[e.idx].attempt {
			continue // not a completion, or a stale one
		}
		if f.Pool == "" || (known && s.state[e.idx].pool == pool) {
			victims = append(victims, e)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	slices.SortFunc(victims, func(a, b refEvent) int { return cmp.Compare(a.job, b.job) })
	v := victims[int(f.Salt%uint64(len(victims)))]
	jv, st := &s.jobs[v.idx], &s.state[v.idx]
	started := s.res.Spans[v.idx].Start
	p := &s.pools[st.pool]
	p.free++
	// Remove the unexecuted remainder of the attempt from busy time;
	// the part already executed stays, as genuinely wasted slot time.
	p.busy -= v.at - s.now
	st.attempt++
	retryN := int(st.attempt)
	maxR := retry.MaxRetries
	if maxR == 0 {
		maxR = DefaultMaxRetries
	}
	if retryN > maxR {
		return fmt.Errorf("sim: job %d (%s) killed %d times, exceeding %d retries", jv.ID, jv.Name, retryN, maxR)
	}
	var delay, extra float64
	if retry.Delay != nil {
		delay = retry.Delay(jv.ID, retryN)
	}
	if retry.ExtraCost != nil {
		extra = retry.ExtraCost(jv.ID, retryN, f.LoseObjects)
	}
	if delay < 0 || extra < 0 {
		return fmt.Errorf("sim: retry policy returned negative delay/cost (%g, %g) for job %d", delay, extra, jv.ID)
	}
	st.extra = extra

	rec := &s.res.Recovery
	rec.Kills++
	if f.LoseObjects {
		rec.NodeKills++
	}
	rec.LostSeconds += s.now - started
	rec.DelaySeconds += delay
	rec.ExtraCostSeconds += extra
	s.res.Aborts = append(s.res.Aborts, refAbort{
		Job: jv.ID, Attempt: retryN, Start: started, Killed: s.now,
		LostObjects: f.LoseObjects,
	})

	// Re-queue: dependencies were satisfied before the first attempt,
	// so the job re-enters its pool's queue directly.
	readyAt := s.now + delay
	p.ready.push(refEvent{at: readyAt, job: jv.ID, idx: v.idx})
	if readyAt > s.now {
		s.events.push(refEvent{at: readyAt, job: refWakeupEvent})
	}
	return nil
}

// refFaultEvent kills one running job at a virtual time. The victim is
// chosen deterministically: the running jobs (optionally restricted to
// one pool) are ordered by ID and indexed by Salt, so a fault sequence
// plus a job set fully determines the schedule. A fault that strikes
// while nothing (matching) is running is a no-op, like a node crashing
// between tasks.
type refFaultEvent struct {
	// At is the virtual time of the fault.
	At float64
	// Pool restricts victims to one pool; "" means any pool.
	Pool string
	// Salt selects among the running jobs.
	Salt uint64
	// LoseObjects marks a node-level fault: the retry policy may charge
	// object reconstruction on top of re-execution.
	LoseObjects bool
}

// refRetryPolicy controls how a killed job is re-executed. Both paradigms
// express their recovery semantics through it: the Ray-style backend
// retries with capped exponential backoff and pays object
// reconstruction after node faults; the dataflow engine restarts the
// worker and replays from the last checkpoint.
type refRetryPolicy struct {
	// Delay returns the wait in seconds before the retry-th re-execution
	// (1-based) of job id may re-enter its pool's queue. Nil means no
	// delay.
	Delay func(id refJobID, retry int) float64
	// ExtraCost returns seconds added to the retried attempt's slot time
	// (checkpoint restore reads, object reconstruction). Nil means none.
	ExtraCost func(id refJobID, retry int, objectsLost bool) float64
	// MaxRetries bounds retries per job; 0 means DefaultMaxRetries.
	// Exceeding it is an error: the run is declared unrecoverable.
	MaxRetries int
}

// refAbort records one killed attempt.
type refAbort struct {
	// Job is the killed job; Attempt is the 1-based attempt number that
	// died.
	Job     refJobID
	Attempt int
	// Start and Killed bound the aborted attempt on the virtual clock.
	Start  float64
	Killed float64
	// LostObjects marks node-level faults.
	LostObjects bool
}
