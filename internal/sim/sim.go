// Package sim is a deterministic discrete-event simulator for job
// graphs executing on bounded resource pools.
//
// Both execution paradigms in this repository lower their work to the
// same representation: a directed acyclic graph of Jobs, each demanding
// one slot of a named Pool for a known amount of simulated time. The
// workflow engine lowers (operator, batch) pairs — which is what makes
// pipelining emerge naturally — and the Ray-style scheduler lowers
// tasks. Keeping one simulator for both paradigms confines their
// differences to the lowering, so measured contrasts between paradigms
// cannot be artifacts of two divergent clocks.
//
// Scheduling is non-preemptive greedy list scheduling: a job becomes
// ready when all of its dependencies have finished plus its extra
// latency, ready jobs queue per pool in (ready time, ID) order, and a
// freed slot immediately starts the head of its pool's queue. The
// simulation is fully deterministic.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// JobID identifies a job within one Schedule call.
type JobID int

// Job is one unit of simulated work.
type Job struct {
	ID   JobID   // unique within the job set
	Name string  // optional label for traces and error messages
	Cost float64 // simulated seconds of exclusive work on one slot
	Pool string  // resource pool the job runs on

	// Deps lists jobs that must finish before this job may start.
	Deps []JobID

	// Latency is extra delay (for example network transfer or
	// deserialization) between the last dependency finishing and the
	// job becoming ready. It does not occupy a slot.
	Latency float64
}

// Pool is a named resource with a fixed number of identical slots.
type Pool struct {
	Name  string
	Slots int
}

// Span records when one job ran.
type Span struct {
	Start  float64
	Finish float64
}

// Result reports the outcome of a Schedule call.
type Result struct {
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
	Aborts []Abort
	// Recovery aggregates fault-recovery work; zero without injection.
	Recovery Recovery
}

// Utilization returns the fraction of pool slot-time spent busy over
// the makespan, or 0 if the makespan is zero.
func (r *Result) Utilization(pool string, slots int) float64 {
	if r.Makespan <= 0 || slots <= 0 {
		return 0
	}
	return r.BusyTime[pool] / (r.Makespan * float64(slots))
}

// event is one entry of the event heap or of a pool's ready queue.
// On the event heap it is a job completion, (job == wakeupEvent) a
// dispatch wakeup at the moment a queued job's latency elapses, or
// (job <= faultBase) a fault strike, carrying the fault's index as
// faultBase-job; attempt tags completions so a killed attempt's stale
// completion event can be recognized and dropped. On a ready queue it
// is a job waiting for a slot since at. Both order by (at, job); idx is
// the job's position in the job slice, so handling an event indexes
// state instead of looking the ID up.
type event struct {
	at      float64
	job     JobID
	idx     int32
	attempt int32
}

// wakeupEvent marks events that exist only to trigger a dispatch at a
// job's ready time. Without them, a job whose latency-delayed ready
// time falls while other jobs are still running would not start until
// the next completion, even with free slots.
const wakeupEvent = JobID(-1)

// faultBase encodes fault indices into event job IDs: fault i is
// job faultBase-i. All faults sort below wakeupEvent, so at equal
// times a fault is processed before dispatches and completions — a
// job finishing the instant a fault strikes is killed, the harsher
// (and still deterministic) reading.
const faultBase = JobID(-2)

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.job < o.job
}

// eventHeap is a binary min-heap on (at, job): container/heap's
// algorithm over a concrete element type, so a push or pop boxes
// nothing.
type eventHeap []event

func (h *eventHeap) push(e event) {
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

func (h *eventHeap) pop() event {
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

// jobIndex maps JobIDs to positions in a job slice. Lowered job sets
// number their jobs 0..n-1, so the common case is a flat table; sparse
// or negative IDs fall back to a map.
type jobIndex struct {
	flat []int32 // position by ID, -1 where no job has it
	m    map[JobID]int32
}

func newJobIndex(jobs []Job) jobIndex {
	lo, hi := JobID(0), JobID(-1)
	for i := range jobs {
		lo, hi = min(lo, jobs[i].ID), max(hi, jobs[i].ID)
	}
	if lo < 0 || int(hi) >= 4*len(jobs) {
		return jobIndex{m: make(map[JobID]int32, len(jobs))}
	}
	flat := make([]int32, hi+1)
	for i := range flat {
		flat[i] = -1
	}
	return jobIndex{flat: flat}
}

// lookup returns the position of the job with this ID, or -1.
func (x *jobIndex) lookup(id JobID) int32 {
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
func (x *jobIndex) set(id JobID, i int32) {
	if x.m != nil {
		x.m[id] = i
	} else {
		x.flat[id] = i
	}
}

// Schedule simulates the execution of jobs on pools and returns the
// resulting timeline. It returns an error for duplicate job IDs,
// references to unknown pools or jobs, non-positive pool sizes,
// negative costs, or dependency cycles.
func Schedule(jobs []Job, pools []Pool) (*Result, error) {
	return schedule(jobs, pools, nil, RetryPolicy{})
}

// jobState is the event loop's bookkeeping for one job, at the job's
// position in the job slice.
type jobState struct {
	depFinish float64 // latest finish among the dependencies finished so far
	extra     float64 // retry cost added to the next attempt; 0 until a fault kills one
	pending   int32   // dependencies not yet finished
	pool      int32   // position of the job's pool
	attempt   int32   // attempts killed so far; 0 = first attempt
}

// poolState is one pool's slots and queue, at the pool's declared
// position.
type poolState struct {
	name  string
	free  int
	busy  float64   // slot-seconds consumed; BusyTime[name] once a job has started here
	used  bool      // some job started here
	ready eventHeap // jobs waiting for a slot, in (ready time, ID) order
}

// scheduler is the state of one schedule call. Jobs and pools are
// addressed by position throughout; IDs and names are resolved once,
// while the inputs are validated, and appear again only as the (at,
// job) ordering key and as the keys of the Result's BusyTime.
type scheduler struct {
	jobs   []Job
	state  []jobState
	pools  []poolState
	poolAt map[string]int32
	// Job i's dependents are dependents[depOff[i]:depOff[i+1]].
	depOff     []int32
	dependents []int32
	events     eventHeap
	now        float64
	res        *Result
}

// schedule is the event loop behind Schedule and ScheduleFaulty. A
// fault-free call is the same loop with no fault events on the heap:
// every attempt counter stays 0 and every retry cost +0.
func schedule(jobs []Job, pools []Pool, faults []FaultEvent, retry RetryPolicy) (*Result, error) {
	s := &scheduler{
		jobs:   jobs,
		state:  make([]jobState, len(jobs)),
		pools:  make([]poolState, len(pools)),
		poolAt: make(map[string]int32, len(pools)),
		depOff: make([]int32, len(jobs)+2),
		res: &Result{
			Spans:    make([]Span, len(jobs)),
			BusyTime: make(map[string]float64, len(pools)),
		},
	}
	ix := newJobIndex(jobs)
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
		if _, dup := s.poolAt[p.Name]; dup {
			return nil, fmt.Errorf("sim: duplicate pool %q", p.Name)
		}
		s.poolAt[p.Name] = int32(i)
		s.pools[i] = poolState{name: p.Name, free: p.Slots}
	}

	// Validate references, resolving each to a position, and count every
	// job's dependents two places up in depOff (see the fill below).
	for i := range jobs {
		j := &jobs[i]
		pool, ok := s.poolAt[j.Pool]
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
		s.state[i] = jobState{pool: pool, pending: int32(len(j.Deps))}
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
		s.events.push(event{at: faults[i].At, job: faultBase - JobID(i)})
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
		if ev.job <= faultBase {
			if err := s.strike(&faults[int(faultBase-ev.job)], &retry); err != nil {
				return nil, err
			}
			s.dispatch()
			continue
		}
		if ev.job == wakeupEvent {
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
func (s *scheduler) enqueue(i int32, at float64) {
	j := &s.jobs[i]
	readyAt := at + j.Latency
	s.pools[s.state[i].pool].ready.push(event{at: readyAt, job: j.ID, idx: i})
	if readyAt > s.now {
		s.events.push(event{at: readyAt, job: wakeupEvent})
	}
}

// start runs job i on a free slot of its pool from the current time.
func (s *scheduler) start(i int32) {
	j, st := &s.jobs[i], &s.state[i]
	p := &s.pools[st.pool]
	p.free--
	p.used = true
	c := j.Cost + st.extra
	fin := s.now + c
	s.res.Spans[i] = Span{Start: s.now, Finish: fin}
	p.busy += c
	s.events.push(event{at: fin, job: j.ID, idx: i, attempt: st.attempt})
}

// dispatch starts every startable job at the current time, pool by
// pool in declared order. A job is startable when it is ready (ready
// time <= now) and its pool has a free slot; what starts in one pool
// never depends on another, so any fixed order gives the same schedule.
func (s *scheduler) dispatch() {
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
func (s *scheduler) strike(f *FaultEvent, retry *RetryPolicy) error {
	pool, known := s.poolAt[f.Pool]
	var victims []event
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
	slices.SortFunc(victims, func(a, b event) int { return cmp.Compare(a.job, b.job) })
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
	s.res.Aborts = append(s.res.Aborts, Abort{
		Job: jv.ID, Attempt: retryN, Start: started, Killed: s.now,
		LostObjects: f.LoseObjects,
	})

	// Re-queue: dependencies were satisfied before the first attempt,
	// so the job re-enters its pool's queue directly.
	readyAt := s.now + delay
	p.ready.push(event{at: readyAt, job: jv.ID, idx: v.idx})
	if readyAt > s.now {
		s.events.push(event{at: readyAt, job: wakeupEvent})
	}
	return nil
}

// CriticalPath returns the length of the longest dependency chain
// (sum of costs and latencies), a lower bound on any schedule's
// makespan: the length of the chain CriticalChain returns. It returns
// an error on cycles or unknown dependencies.
func CriticalPath(jobs []Job) (float64, error) {
	_, length, err := longestChain(jobs)
	return length, err
}

// CriticalChain returns the jobs on one longest dependency chain, in
// execution order. Ties are broken toward the smaller job ID at every
// step, so the chain is deterministic for a given job set regardless
// of input or dependency order. It returns an error on cycles or
// unknown dependencies.
//
// The telemetry layer calls this after every instrumented run, so it
// stays allocation-light: lowered job IDs are dense, which lets the
// memo tables be flat slices indexed by ID instead of maps.
func CriticalChain(jobs []Job) ([]JobID, error) {
	chain, _, err := longestChain(jobs)
	return chain, err
}

// longestChain is the one longest-path walk behind CriticalChain and
// CriticalPath: a memoised depth-first search returning the chain and
// its length.
func longestChain(jobs []Job) ([]JobID, float64, error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	for i := range jobs {
		if jobs[i].ID < 0 {
			return nil, 0, fmt.Errorf("sim: negative job ID %d", jobs[i].ID)
		}
	}
	// id -> job index, last definition winning.
	ix := newJobIndex(jobs)
	for i := range jobs {
		ix.set(jobs[i].ID, int32(i))
	}
	lookup := func(id JobID) int { return int(ix.lookup(id)) }
	memo := make([]float64, len(jobs))
	best := make([]JobID, len(jobs)) // heaviest dependency, -1 if none
	state := make([]uint8, len(jobs))
	var visit func(ji int) (float64, error)
	visit = func(ji int) (float64, error) {
		if state[ji] == 2 {
			return memo[ji], nil
		}
		if state[ji] == 1 {
			return 0, fmt.Errorf("sim: dependency cycle through job %d", jobs[ji].ID)
		}
		state[ji] = 1
		j := &jobs[ji]
		longest, heaviest := 0.0, JobID(-1)
		for _, d := range j.Deps {
			di := lookup(d)
			if di < 0 {
				return 0, fmt.Errorf("sim: job %d depends on unknown job %d", j.ID, d)
			}
			v, err := visit(di)
			if err != nil {
				return 0, err
			}
			// Strictly longer wins; on a tie the smaller dependency ID
			// does, making the chain independent of Deps order.
			if v > longest || (v == longest && heaviest >= 0 && d < heaviest) {
				longest, heaviest = v, d
			}
		}
		state[ji] = 2
		memo[ji] = longest + j.Cost + j.Latency
		best[ji] = heaviest
		return memo[ji], nil
	}
	top, topLen := JobID(-1), -1.0
	for i := range jobs {
		ji := lookup(jobs[i].ID) // canonical index under duplicate IDs
		v, err := visit(ji)
		if err != nil {
			return nil, 0, err
		}
		if v > topLen || (v == topLen && jobs[ji].ID < top) {
			top, topLen = jobs[ji].ID, v
		}
	}
	var chain []JobID
	for id := top; id >= 0; id = best[lookup(id)] {
		chain = append(chain, id)
	}
	// Reverse into execution order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, topLen, nil
}

// TotalWork returns the sum of job costs grouped by pool.
func TotalWork(jobs []Job) map[string]float64 {
	m := make(map[string]float64)
	for _, j := range jobs {
		m[j.Pool] += j.Cost
	}
	return m
}

// LowerBound returns max(critical path, per-pool work / slots), a valid
// lower bound for any non-preemptive schedule of jobs on pools.
func LowerBound(jobs []Job, pools []Pool) (float64, error) {
	cp, err := CriticalPath(jobs)
	if err != nil {
		return 0, err
	}
	lb := cp
	work := TotalWork(jobs)
	for _, p := range pools {
		if p.Slots <= 0 {
			return 0, fmt.Errorf("sim: pool %q has %d slots", p.Name, p.Slots)
		}
		if v := work[p.Name] / float64(p.Slots); v > lb {
			lb = v
		}
	}
	return lb, nil
}
