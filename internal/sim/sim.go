// Package sim is a deterministic discrete-event simulator for job
// graphs executing on bounded resource pools.
//
// Both execution paradigms in this repository lower their work to the
// same representation: a directed acyclic graph of Jobs, each demanding
// one slot of a Pool for a known amount of simulated time. The workflow
// engine lowers (operator, batch) pairs — which is what makes
// pipelining emerge naturally — and the Ray-style scheduler lowers
// tasks. Keeping one simulator for both paradigms confines their
// differences to the lowering, so measured contrasts between paradigms
// cannot be artifacts of two divergent clocks.
//
// The graph is positional: a job's ID is its position in the job
// slice, and its pool is a position in the pool slice. Names live with
// the caller, which is the only one that reads them.
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

// JobID identifies a job by its position in the job slice of one
// Schedule call.
type JobID int32

// Job is one unit of simulated work.
type Job struct {
	Cost float64 // simulated seconds of exclusive work on one slot

	// Latency is extra delay (for example network transfer or
	// deserialization) between the last dependency finishing and the
	// job becoming ready. It does not occupy a slot.
	Latency float64

	Pool int32 // position of the job's pool in the pool slice

	// Deps lists jobs that must finish before this job may start.
	Deps []JobID
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
	// Spans[i] is the execution interval of job i (the final,
	// successful attempt under fault injection).
	Spans []Span
	// BusyTime[p] is the total slot-seconds consumed on pool p,
	// including the partial work of attempts later killed by faults.
	BusyTime []float64
	// Aborts lists killed attempts in kill order; empty without fault
	// injection.
	Aborts []Abort
	// Recovery aggregates fault-recovery work; zero without injection.
	Recovery Recovery
}

// event is one entry of the event heap or of a pool's ready queue.
// On the event heap it is a job completion, (job == wakeupEvent) a
// dispatch wakeup at the moment a queued job's latency elapses, or
// (job <= faultBase) a fault strike, carrying the fault's index as
// faultBase-job; attempt tags completions so a killed attempt's stale
// completion event can be recognized and dropped. On a ready queue it
// is a job waiting for a slot since at. Both order by (at, job).
type event struct {
	at      float64
	job     JobID
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

// Schedule simulates the execution of jobs on pools and returns the
// resulting timeline. It returns an error for references to unknown
// pools or jobs, duplicate pool names, non-positive pool sizes,
// negative costs, or dependency cycles.
func Schedule(jobs []Job, pools []Pool) (*Result, error) {
	return schedule(jobs, pools, nil, RetryPolicy{})
}

// jobState is the event loop's bookkeeping for one job, at the job's
// position.
type jobState struct {
	depFinish float64 // latest finish among the dependencies finished so far
	extra     float64 // retry cost added to the next attempt; 0 until a fault kills one
	pending   int32   // dependencies not yet finished
	attempt   int32   // attempts killed so far; 0 = first attempt
}

// poolState is one pool's slots and queue, at the pool's position.
type poolState struct {
	free  int
	ready eventHeap // jobs waiting for a slot, in (ready time, ID) order
}

// scheduler is the state of one schedule call.
type scheduler struct {
	jobs  []Job
	state []jobState
	pools []poolState
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
		depOff: make([]int32, len(jobs)+2),
		res: &Result{
			Spans:    make([]Span, len(jobs)),
			BusyTime: make([]float64, len(pools)),
		},
	}
	slots := 0
	for i, p := range pools {
		if p.Slots <= 0 {
			return nil, fmt.Errorf("sim: pool %q has %d slots", p.Name, p.Slots)
		}
		for _, q := range pools[:i] {
			if q.Name == p.Name {
				return nil, fmt.Errorf("sim: duplicate pool %q", p.Name)
			}
		}
		s.pools[i].free = p.Slots
		slots += p.Slots
	}

	// Validate references and count every job's dependents two places
	// up in depOff (see the fill below).
	for i := range jobs {
		j := &jobs[i]
		if j.Cost < 0 {
			return nil, fmt.Errorf("sim: job %d has negative cost %g", i, j.Cost)
		}
		if j.Latency < 0 {
			return nil, fmt.Errorf("sim: job %d has negative latency %g", i, j.Latency)
		}
		if j.Pool < 0 || int(j.Pool) >= len(pools) {
			return nil, fmt.Errorf("sim: job %d references unknown pool %d", i, j.Pool)
		}
		for _, d := range j.Deps {
			if d < 0 || int(d) >= len(jobs) {
				return nil, fmt.Errorf("sim: job %d depends on unknown job %d", i, d)
			}
			s.depOff[d+2]++
		}
		s.state[i].pending = int32(len(j.Deps))
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
			s.dependents[s.depOff[d+1]] = int32(i)
			s.depOff[d+1]++
		}
	}

	// The event heap holds the faults and at most one completion per
	// slot, besides the wakeups of jobs whose latency has not elapsed
	// (and, once a fault strikes, stale completions).
	s.events = make(eventHeap, 0, len(faults)+min(slots, len(jobs)))
	for i := range faults {
		s.events.push(event{at: faults[i].At, job: faultBase - JobID(i)})
	}
	// Jobs with no dependencies are ready at time 0 (plus latency).
	for i := range s.state {
		if s.state[i].pending == 0 {
			s.enqueue(JobID(i), 0)
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
		if ev.attempt != s.state[ev.job].attempt {
			continue // stale completion of a killed attempt
		}
		s.pools[jobs[ev.job].Pool].free++
		finished++
		for _, dep := range s.dependents[s.depOff[ev.job]:s.depOff[ev.job+1]] {
			ds := &s.state[dep]
			if s.now > ds.depFinish {
				ds.depFinish = s.now
			}
			ds.pending--
			if ds.pending == 0 {
				s.enqueue(JobID(dep), ds.depFinish)
			}
		}
		s.dispatch()
	}
	s.res.Makespan = s.now
	return s.res, nil
}

// enqueue puts job i, whose last dependency finished at time at, on its
// pool's ready queue.
func (s *scheduler) enqueue(i JobID, at float64) {
	j := &s.jobs[i]
	readyAt := at + j.Latency
	s.pools[j.Pool].ready.push(event{at: readyAt, job: i})
	if readyAt > s.now {
		s.events.push(event{at: readyAt, job: wakeupEvent})
	}
}

// start runs job i on a free slot of its pool from the current time.
func (s *scheduler) start(i JobID) {
	j, st := &s.jobs[i], &s.state[i]
	s.pools[j.Pool].free--
	c := j.Cost + st.extra
	fin := s.now + c
	s.res.Spans[i] = Span{Start: s.now, Finish: fin}
	s.res.BusyTime[j.Pool] += c
	s.events.push(event{at: fin, job: i, attempt: st.attempt})
}

// dispatch starts every startable job at the current time, pool by
// pool in declared order. A job is startable when it is ready (ready
// time <= now) and its pool has a free slot; what starts in one pool
// never depends on another, so any fixed order gives the same schedule.
func (s *scheduler) dispatch() {
	for i := range s.pools {
		p := &s.pools[i]
		for p.free > 0 && len(p.ready) > 0 && p.ready[0].at <= s.now {
			s.start(p.ready.pop().job)
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
	var victims []event
	for _, e := range s.events {
		if e.job < 0 || e.attempt != s.state[e.job].attempt {
			continue // not a completion, or a stale one
		}
		if f.Pool == AnyPool || s.jobs[e.job].Pool == f.Pool {
			victims = append(victims, e)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	slices.SortFunc(victims, func(a, b event) int { return cmp.Compare(a.job, b.job) })
	v := victims[int(f.Salt%uint64(len(victims)))]
	st := &s.state[v.job]
	started := s.res.Spans[v.job].Start
	pool := s.jobs[v.job].Pool
	s.pools[pool].free++
	// Remove the unexecuted remainder of the attempt from busy time;
	// the part already executed stays, as genuinely wasted slot time.
	s.res.BusyTime[pool] -= v.at - s.now
	st.attempt++
	retryN := int(st.attempt)
	maxR := retry.MaxRetries
	if maxR == 0 {
		maxR = DefaultMaxRetries
	}
	if retryN > maxR {
		return fmt.Errorf("sim: job %d killed %d times, exceeding %d retries", v.job, retryN, maxR)
	}
	var delay, extra float64
	if retry.Delay != nil {
		delay = retry.Delay(v.job, retryN)
	}
	if retry.ExtraCost != nil {
		extra = retry.ExtraCost(v.job, retryN, f.LoseObjects)
	}
	if delay < 0 || extra < 0 {
		return fmt.Errorf("sim: retry policy returned negative delay/cost (%g, %g) for job %d", delay, extra, v.job)
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
		Job: v.job, Attempt: retryN, Start: started, Killed: s.now,
		LostObjects: f.LoseObjects,
	})

	// Re-queue: dependencies were satisfied before the first attempt,
	// so the job re-enters its pool's queue directly.
	readyAt := s.now + delay
	s.pools[pool].ready.push(event{at: readyAt, job: v.job})
	if readyAt > s.now {
		s.events.push(event{at: readyAt, job: wakeupEvent})
	}
	return nil
}

// CriticalChain returns the positions of the jobs on one longest
// dependency chain, in execution order. Ties are broken toward the
// smaller position at every step, so the chain is deterministic for a
// given job set regardless of dependency order. It returns an error on
// cycles or unknown dependencies.
func CriticalChain(jobs []Job) ([]JobID, error) {
	chain, _, err := longestChain(jobs)
	return chain, err
}

// longestChain is the one longest-path walk behind CriticalChain (and
// the tests' CriticalPath): a memoised depth-first search returning the
// chain and its length.
func longestChain(jobs []Job) ([]JobID, float64, error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	memo := make([]float64, len(jobs))
	best := make([]JobID, len(jobs)) // heaviest dependency, -1 if none
	state := make([]uint8, len(jobs))
	var visit func(ji JobID) (float64, error)
	visit = func(ji JobID) (float64, error) {
		if state[ji] == 2 {
			return memo[ji], nil
		}
		if state[ji] == 1 {
			return 0, fmt.Errorf("sim: dependency cycle through job %d", ji)
		}
		state[ji] = 1
		j := &jobs[ji]
		longest, heaviest := 0.0, JobID(-1)
		for _, d := range j.Deps {
			if d < 0 || int(d) >= len(jobs) {
				return 0, fmt.Errorf("sim: job %d depends on unknown job %d", ji, d)
			}
			v, err := visit(d)
			if err != nil {
				return 0, err
			}
			// Strictly longer wins; on a tie the smaller dependency does,
			// making the chain independent of Deps order.
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
		v, err := visit(JobID(i))
		if err != nil {
			return nil, 0, err
		}
		if v > topLen {
			top, topLen = JobID(i), v
		}
	}
	var chain []JobID
	for id := top; id >= 0; id = best[id] {
		chain = append(chain, id)
	}
	slices.Reverse(chain) // into execution order
	return chain, topLen, nil
}
