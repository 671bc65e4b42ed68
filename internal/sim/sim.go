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
// the caller, which is the only one that reads them. A caller whose
// jobs come in regular runs states them as groups (Group, OfGroups),
// and the event loop generates each job's cost, pool, dependencies and
// dependents from its group; an explicit job list is the same loop's
// one-job groups.
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
	// successful attempt under fault injection). Schedule always
	// fills it; Graph.Schedule only when asked.
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
// faultBase-job. On a ready queue it is a job waiting for a slot since
// at. A job's entries carry its group; a killed attempt's completion
// stays on the heap with its group complemented (negative), so it is
// recognized and dropped when it pops. Both order by (at, job).
type event struct {
	at    float64
	job   JobID
	group int32
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
// resulting timeline, every job's span included. It returns an error
// for references to unknown pools or jobs, duplicate pool names,
// non-positive pool sizes, negative costs, or dependency cycles.
func Schedule(jobs []Job, pools []Pool) (*Result, error) {
	return OfJobs(jobs).Schedule(pools, nil, RetryPolicy{}, true)
}

// Schedule simulates g on pools under a fault sequence (none for a
// fault-free run). Killed jobs are re-queued under the retry policy;
// their dependents only ever observe the completion of the final
// successful attempt, so the DAG semantics — and therefore everything
// the jobs compute — are unchanged. The result's Aborts and Recovery
// fields describe the recovery work. Result.Spans is filled only when
// spans is set: a caller that reads the makespan and busy times alone
// keeps no record per job beyond the event loop's own.
func (g Graph) Schedule(pools []Pool, faults []FaultEvent, retry RetryPolicy, spans bool) (*Result, error) {
	for i := range faults {
		if faults[i].At < 0 {
			return nil, fmt.Errorf("sim: fault %d at negative time %g", i, faults[i].At)
		}
	}
	return schedule(g, pools, faults, retry, spans)
}

// jobState is the event loop's one record per job, at the job's
// position; it holds no pointer.
type jobState struct {
	depFinish float64 // latest finish among the dependencies finished so far
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
	g     Graph
	state []jobState
	pools []poolState
	// Group k's dependents are dependents[depOff[k]:depOff[k+1]]: h
	// for a group h that lists k in After, ^h for one whose Up is k.
	depOff     []int32
	dependents []int32
	events     eventHeap
	lastWake   float64           // the time of the last wakeup pushed
	extra      map[JobID]float64 // retry cost of a struck job's next attempt
	// spans[i] is job i's latest attempt: Result.Spans when asked for,
	// and under faults, where a strike reads its victim's start, kept
	// either way.
	spans []Span
	now   float64
	res   *Result
}

// schedule is the event loop behind Schedule and Graph.Schedule. A
// fault-free call is the same loop with no fault events on the heap:
// every attempt counter stays 0 and every retry cost +0.
func schedule(g Graph, pools []Pool, faults []FaultEvent, retry RetryPolicy, spans bool) (*Result, error) {
	n, groups := g.Len(), g.NumGroups()
	s := &scheduler{
		g:      g,
		pools:  make([]poolState, len(pools)),
		depOff: make([]int32, groups+2),
		res:    &Result{BusyTime: make([]float64, len(pools))},
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
	if g.grouped() {
		if err := g.checkGroups(len(pools)); err != nil {
			return nil, err
		}
	}
	s.state = make([]jobState, n)
	if spans || len(faults) > 0 {
		s.spans = make([]Span, n)
	}
	if spans {
		s.res.Spans = s.spans
	}

	// Count every group's dependents two places up in depOff (see the
	// fill below), and give every job its dependency count.
	for k := range int32(groups) {
		pending := int32(0)
		if !g.grouped() {
			j := &g.jobs[k]
			if j.Cost < 0 {
				return nil, fmt.Errorf("sim: job %d has negative cost %g", k, j.Cost)
			}
			if j.Latency < 0 {
				return nil, fmt.Errorf("sim: job %d has negative latency %g", k, j.Latency)
			}
			if j.Pool < 0 || int(j.Pool) >= len(pools) {
				return nil, fmt.Errorf("sim: job %d references unknown pool %d", k, j.Pool)
			}
			for _, d := range j.Deps {
				if d < 0 || int(d) >= n {
					return nil, fmt.Errorf("sim: job %d depends on unknown job %d", k, d)
				}
				s.depOff[d+2]++
			}
			pending = int32(len(j.Deps))
		} else {
			gr := &g.groups[k]
			for _, a := range gr.After {
				s.depOff[a+2]++
				pending += g.groups[a].Count
			}
			if gr.Up >= 0 {
				s.depOff[gr.Up+2]++
				pending++
			}
		}
		first, count := g.span(k)
		for id := first; id < first+JobID(count); id++ {
			s.state[id].pending = pending
		}
	}
	// Running sums make depOff[k+1] the start of group k's dependents;
	// filling a row advances it to the row's end, which is the start of
	// the next, so afterwards depOff[k] starts row k. Rows list
	// dependents in group order.
	for i := 2; i < len(s.depOff); i++ {
		s.depOff[i] += s.depOff[i-1]
	}
	s.dependents = make([]int32, s.depOff[groups+1])
	for k := range int32(groups) {
		if !g.grouped() {
			for _, d := range g.jobs[k].Deps {
				s.dependents[s.depOff[d+1]] = k
				s.depOff[d+1]++
			}
			continue
		}
		gr := &g.groups[k]
		for _, a := range gr.After {
			s.dependents[s.depOff[a+1]] = k
			s.depOff[a+1]++
		}
		if gr.Up >= 0 {
			s.dependents[s.depOff[gr.Up+1]] = ^k
			s.depOff[gr.Up+1]++
		}
	}

	// The event heap holds the faults and at most one completion per
	// slot, besides the wakeups of jobs whose latency has not elapsed
	// (and, once a fault strikes, stale completions).
	s.events = make(eventHeap, 0, len(faults)+min(slots, n))
	for i := range faults {
		s.events.push(event{at: faults[i].At, job: faultBase - JobID(i)})
	}
	// Jobs with no dependencies are ready at time 0 (plus latency).
	for k := range int32(groups) {
		first, count := g.span(k)
		for id := first; id < first+JobID(count); id++ {
			if s.state[id].pending == 0 {
				s.enqueue(k, id, 0)
			}
		}
	}

	s.dispatch()
	for finished := 0; finished < n; {
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
				return nil, fmt.Errorf("sim: dependency cycle detected (%d of %d jobs stuck)", n-finished, n)
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
		if ev.group < 0 {
			continue // stale completion of a killed attempt
		}
		pool, _, _ := s.g.attr(ev.group)
		s.pools[pool].free++
		finished++
		s.complete(ev.group, ev.job)
		s.dispatch()
	}
	s.res.Makespan = s.now
	return s.res, nil
}

// complete releases the dependents of job id of group k, which has
// just finished: every job of a group that waits on k whole, and the
// jobs of a group whose Up is k that wait on this job.
func (s *scheduler) complete(k int32, id JobID) {
	deps := s.dependents[s.depOff[k]:s.depOff[k+1]]
	if !s.g.grouped() {
		for _, d := range deps {
			s.release(d, JobID(d)) // job d is group d
		}
		return
	}
	for _, d := range deps {
		if d >= 0 {
			first, count := s.g.span(d)
			for dep := first; dep < first+JobID(count); dep++ {
				s.release(d, dep)
			}
			continue
		}
		h := ^d
		gr := &s.g.groups[h]
		first, count := s.g.span(k)
		j, last := int32(id-first), count-1
		switch {
		case gr.UpLast:
			if j == last {
				for dep := gr.First; dep < gr.First+JobID(gr.Count); dep++ {
					s.release(h, dep)
				}
			}
		case j < last:
			if j < gr.Count {
				s.release(h, gr.First+JobID(j))
			}
		default:
			for dep := gr.First + JobID(last); dep < gr.First+JobID(gr.Count); dep++ {
				s.release(h, dep)
			}
		}
	}
}

// release counts one finished dependency of job id of group k, and
// queues the job when it was the last.
func (s *scheduler) release(k int32, id JobID) {
	st := &s.state[id]
	if s.now > st.depFinish {
		st.depFinish = s.now
	}
	st.pending--
	if st.pending == 0 {
		s.enqueue(k, id, st.depFinish)
	}
}

// enqueue puts job id of group k, whose last dependency finished at
// time at, on its pool's ready queue.
func (s *scheduler) enqueue(k int32, id JobID, at float64) {
	pool, _, latency := s.g.attr(k)
	readyAt := at + latency
	s.pools[pool].ready.push(event{at: readyAt, job: id, group: k})
	s.wake(readyAt)
}

// wake makes sure a dispatch runs at time at. A wakeup already pushed
// for that time is still on the heap while at lies ahead, so a burst of
// jobs readied for one time (a port's batches behind its barrier)
// pushes one.
func (s *scheduler) wake(at float64) {
	if at > s.now && at != s.lastWake {
		s.events.push(event{at: at, job: wakeupEvent})
		s.lastWake = at
	}
}

// start runs job id of group k on a free slot of its pool from the
// current time.
func (s *scheduler) start(k int32, id JobID) {
	pool, cost, _ := s.g.attr(k)
	s.pools[pool].free--
	c := cost
	if s.extra != nil {
		c += s.extra[id]
	}
	fin := s.now + c
	if s.spans != nil {
		s.spans[id] = Span{Start: s.now, Finish: fin}
	}
	s.res.BusyTime[pool] += c
	s.events.push(event{at: fin, job: id, group: k})
}

// dispatch starts every startable job at the current time, pool by
// pool in declared order. A job is startable when it is ready (ready
// time <= now) and its pool has a free slot; what starts in one pool
// never depends on another, so any fixed order gives the same schedule.
func (s *scheduler) dispatch() {
	for i := range s.pools {
		p := &s.pools[i]
		for p.free > 0 && len(p.ready) > 0 && p.ready[0].at <= s.now {
			e := p.ready.pop()
			s.start(e.group, e.job)
		}
	}
}

// strike applies one fault: pick a deterministic victim among the
// running jobs, discard its in-flight attempt, and re-queue it under
// the retry policy. Faults on an idle (or non-matching) system are
// no-ops.
//
// The running jobs are the completions on the event heap that are not
// stale, and such an event's time is its attempt's start plus slot
// cost, so the loop keeps no separate record of them; the victim's
// start is its span's.
func (s *scheduler) strike(f *FaultEvent, retry *RetryPolicy) error {
	var victims []int // positions on the event heap
	for i, e := range s.events {
		if e.job < 0 || e.group < 0 {
			continue // not a completion, or a stale one
		}
		if pool, _, _ := s.g.attr(e.group); f.Pool == AnyPool || pool == f.Pool {
			victims = append(victims, i)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	slices.SortFunc(victims, func(a, b int) int { return cmp.Compare(s.events[a].job, s.events[b].job) })
	vi := victims[int(f.Salt%uint64(len(victims)))]
	v := s.events[vi]
	s.events[vi].group = ^v.group // its completion is stale from now on
	st := &s.state[v.job]
	started := s.spans[v.job].Start
	pool, _, _ := s.g.attr(v.group)
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
	if s.extra == nil {
		s.extra = make(map[JobID]float64)
	}
	s.extra[v.job] = extra

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
	s.pools[pool].ready.push(event{at: readyAt, job: v.job, group: v.group})
	s.wake(readyAt)
	return nil
}

// CriticalChain returns the positions of g's jobs on one longest
// dependency chain, in execution order. Ties are broken toward the
// smaller position at every step, so the chain is deterministic for a
// given job set regardless of dependency order. It returns an error on
// cycles or unknown dependencies.
func (g Graph) CriticalChain() ([]JobID, error) {
	chain, _, err := longestChain(g)
	return chain, err
}

// longestChain is the one longest-path walk behind CriticalChain (and
// the tests' CriticalPath): a memoised depth-first search returning the
// chain and its length.
func longestChain(g Graph) ([]JobID, float64, error) {
	n := g.Len()
	if n == 0 {
		return nil, 0, nil
	}
	if g.grouped() {
		if err := g.checkGroups(-1); err != nil {
			return nil, 0, err
		}
	}
	memo := make([]float64, n)
	best := make([]JobID, n) // heaviest dependency, -1 if none
	state := make([]uint8, n)
	var visit func(k int32, ji JobID) (float64, error)
	visit = func(k int32, ji JobID) (float64, error) {
		if state[ji] == 2 {
			return memo[ji], nil
		}
		if state[ji] == 1 {
			return 0, fmt.Errorf("sim: dependency cycle through job %d", ji)
		}
		state[ji] = 1
		longest, heaviest := 0.0, JobID(-1)
		// Strictly longer wins; on a tie the smaller dependency does,
		// making the chain independent of dependency order.
		dep := func(dk int32, d JobID) error {
			v, err := visit(dk, d)
			if err != nil {
				return err
			}
			if v > longest || (v == longest && heaviest >= 0 && d < heaviest) {
				longest, heaviest = v, d
			}
			return nil
		}
		if !g.grouped() {
			for _, d := range g.jobs[ji].Deps {
				if d < 0 || int(d) >= n {
					return 0, fmt.Errorf("sim: job %d depends on unknown job %d", ji, d)
				}
				if err := dep(int32(d), d); err != nil {
					return 0, err
				}
			}
		} else {
			gr := &g.groups[k]
			for _, a := range gr.After {
				first, count := g.span(a)
				for d := first; d < first+JobID(count); d++ {
					if err := dep(a, d); err != nil {
						return 0, err
					}
				}
			}
			if gr.Up >= 0 {
				if err := dep(gr.Up, g.upJob(gr, int32(ji-gr.First))); err != nil {
					return 0, err
				}
			}
		}
		state[ji] = 2
		_, cost, latency := g.attr(k)
		memo[ji] = longest + cost + latency
		best[ji] = heaviest
		return memo[ji], nil
	}
	top, topLen := JobID(-1), -1.0
	for k := range int32(g.NumGroups()) {
		first, count := g.span(k)
		for id := first; id < first+JobID(count); id++ {
			v, err := visit(k, id)
			if err != nil {
				return nil, 0, err
			}
			if v > topLen {
				top, topLen = id, v
			}
		}
	}
	var chain []JobID
	for id := top; id >= 0; id = best[id] {
		chain = append(chain, id)
	}
	slices.Reverse(chain) // into execution order
	return chain, topLen, nil
}
