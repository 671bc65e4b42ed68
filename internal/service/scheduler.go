// Package service is the multi-tenant serving tier: a fair-share
// scheduler with admission control in front of the task engines, the
// long-running piece the ROADMAP's "millions of users" north star
// needs. The paper's GUI-workflow systems are exactly this shape — one
// shared cluster, many concurrent user sessions — and live or die on
// how fairly they schedule them.
//
// The package splits in two. Scheduler is the pure, deterministic
// core: per-tenant bounded FIFO queues, weighted fair-share dispatch
// by virtual-time (least attained weighted service) accounting over
// the admitted vCPU budget, and typed admission errors. Service wraps
// it with goroutines and a Runner to execute real core runs; Simulate
// drives it open-loop inside a discrete-event simulation for the
// serving experiment. Both paths exercise the same scheduling code, so
// the curves the experiment reports describe the scheduler the server
// actually runs.
package service

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/shard"
)

// Config sizes the scheduler.
type Config struct {
	// BudgetVCPUs is the admitted vCPU budget jobs are packed into;
	// 0 uses the zero topology's worker vCPUs, the paper cluster's 32.
	// A service fronting a sharded cluster sets it from that
	// topology's TotalVCPUs.
	BudgetVCPUs int
	// QueueCap bounds each tenant's pending queue; a submit beyond it
	// is rejected with ErrTenantSaturated. 0 means 64.
	QueueCap int
	// DefaultWeight is the fair-share weight of tenants absent from
	// Weights; 0 means 1.
	DefaultWeight float64
	// Weights maps tenant names to fair-share weights. A tenant with
	// weight 2 converges to twice the admitted vCPU-seconds of a
	// weight-1 tenant when both stay backlogged.
	Weights map[string]float64
}

func (c Config) normalize() Config {
	if c.BudgetVCPUs <= 0 {
		c.BudgetVCPUs = shard.Topology{}.TotalVCPUs()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	return c
}

// Job is one schedulable run request.
type Job struct {
	// ID identifies the job to Complete; must be unique among live jobs.
	ID string
	// Tenant attributes the job; empty means core.DefaultTenant.
	Tenant string
	// Priority orders the job within its tenant's queue: higher first,
	// FIFO among equals. Cross-tenant order is fair share only.
	Priority int
	// VCPUs is the job's worker demand; 0 means 1. Must fit the budget.
	VCPUs int
	// EstSeconds is the expected service time used for vCPU-second
	// accounting; <= 0 charges one unit, degrading accounting to
	// admitted-vCPU fair share (the live server's mode, where durations
	// are unknown at dispatch).
	EstSeconds float64
	// Spec carries the originating request for executors.
	Spec core.RunSpec

	// SubmitAt and DispatchAt are stamped by the scheduler.
	SubmitAt   float64
	DispatchAt float64
	seq        int64
	inflight   bool
}

func (j Job) cost() float64 {
	est := j.EstSeconds
	if est <= 0 {
		est = 1
	}
	return float64(j.VCPUs) * est
}

// ErrTenantSaturated is the admission-control rejection: the tenant's
// bounded queue is full. It maps to HTTP 429. Other tenants' queues
// are unaffected — saturation never head-of-line-blocks across
// tenants.
type ErrTenantSaturated struct {
	Tenant string
	Cap    int
}

func (e *ErrTenantSaturated) Error() string {
	return fmt.Sprintf("service: tenant %q queue saturated (cap %d)", e.Tenant, e.Cap)
}

// ErrJobTooLarge rejects a job whose vCPU demand can never fit the
// budget; queueing it would deadlock its tenant's queue.
type ErrJobTooLarge struct {
	VCPUs  int
	Budget int
}

func (e *ErrJobTooLarge) Error() string {
	return fmt.Sprintf("service: job needs %d vCPUs, budget is %d", e.VCPUs, e.Budget)
}

// tenant is one tenant's scheduler state.
type tenant struct {
	name   string
	weight float64
	// queue holds pending jobs ordered by (priority desc, seq asc) —
	// sorted on insert, so the head is always next.
	queue []*Job
	// vtime is attained weighted service: admitted vCPU-seconds over
	// weight. Dispatch picks the backlogged tenant with minimal vtime.
	vtime float64

	submitted  int64
	rejected   int64
	dispatched int64
	completed  int64
	inflight   int
	// servedCost is completed (admitted) vCPU-seconds, the fairness
	// measure Jain's index is computed over.
	servedCost float64
}

// Scheduler is the deterministic fair-share core. It is not
// goroutine-safe; Service adds the locking.
type Scheduler struct {
	cfg     Config
	tenants map[string]*tenant
	names   []string // sorted; deterministic iteration
	jobs    map[string]*Job
	nextSeq int64
	used    int // vCPUs currently dispatched
}

// NewScheduler builds an empty scheduler.
func NewScheduler(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:     cfg.normalize(),
		tenants: make(map[string]*tenant),
		jobs:    make(map[string]*Job),
	}
}

// Budget returns the admitted vCPU budget.
func (s *Scheduler) Budget() int { return s.cfg.BudgetVCPUs }

func (s *Scheduler) tenantFor(name string) *tenant {
	if name == "" {
		name = core.DefaultTenant
	}
	t, ok := s.tenants[name]
	if !ok {
		w := s.cfg.DefaultWeight
		if ww, ok := s.cfg.Weights[name]; ok && ww > 0 {
			w = ww
		}
		t = &tenant{name: name, weight: w}
		s.tenants[name] = t
		s.names = append(s.names, name)
		slices.Sort(s.names)
		// A tenant arriving (or returning) with stale vtime would
		// otherwise monopolize the budget until it caught up; start it
		// at the current virtual time instead.
		t.vtime = s.minActiveVtime()
	}
	return t
}

// minActiveVtime is the virtual-time floor: the minimum vtime over
// tenants with work queued or in flight, 0 when idle.
func (s *Scheduler) minActiveVtime() float64 {
	min, seen := 0.0, false
	for _, name := range s.names {
		t := s.tenants[name]
		if len(t.queue) == 0 && t.inflight == 0 {
			continue
		}
		if !seen || t.vtime < min {
			min, seen = t.vtime, true
		}
	}
	return min
}

// Submit queues the job, applying admission control. The returned job
// is the scheduler's stamped copy. now is the submit stamp (sim
// seconds or wall seconds — the scheduler only records it).
func (s *Scheduler) Submit(j Job, now float64) (*Job, error) {
	if j.VCPUs <= 0 {
		j.VCPUs = 1
	}
	if j.VCPUs > s.cfg.BudgetVCPUs {
		return nil, &ErrJobTooLarge{VCPUs: j.VCPUs, Budget: s.cfg.BudgetVCPUs}
	}
	t := s.tenantFor(j.Tenant)
	j.Tenant = t.name
	if len(t.queue) >= s.cfg.QueueCap {
		t.rejected++
		return nil, &ErrTenantSaturated{Tenant: t.name, Cap: s.cfg.QueueCap}
	}
	if j.ID == "" {
		j.ID = fmt.Sprintf("%s-%d", t.name, s.nextSeq)
	}
	if _, dup := s.jobs[j.ID]; dup {
		return nil, fmt.Errorf("service: duplicate job id %q", j.ID)
	}
	j.SubmitAt = now
	j.seq = s.nextSeq
	s.nextSeq++
	job := &j
	s.jobs[job.ID] = job
	// Insertion keeping (priority desc, seq asc): stable FIFO within a
	// priority class.
	idx := sort.Search(len(t.queue), func(i int) bool {
		q := t.queue[i]
		return q.Priority < job.Priority
	})
	t.queue = append(t.queue, nil)
	copy(t.queue[idx+1:], t.queue[idx:])
	t.queue[idx] = job
	t.submitted++
	return job, nil
}

// Next pops the next job to dispatch, or false when nothing fits the
// remaining budget. The pick is the minimal-vtime tenant whose queue
// head fits (ties broken by tenant name, so dispatch order is a pure
// function of scheduler history). The tenant is charged the job's
// weighted cost at dispatch.
func (s *Scheduler) Next(now float64) (*Job, bool) {
	var pick *tenant
	for _, name := range s.names {
		t := s.tenants[name]
		if len(t.queue) == 0 || t.queue[0].VCPUs > s.cfg.BudgetVCPUs-s.used {
			continue
		}
		if pick == nil || t.vtime < pick.vtime {
			pick = t
		}
	}
	if pick == nil {
		return nil, false
	}
	job := pick.queue[0]
	copy(pick.queue, pick.queue[1:])
	pick.queue = pick.queue[:len(pick.queue)-1]
	job.DispatchAt = now
	job.inflight = true
	s.used += job.VCPUs
	pick.inflight++
	pick.dispatched++
	pick.vtime += job.cost() / pick.weight
	return job, true
}

// Complete releases a dispatched job's vCPUs. actualSeconds, when
// > 0, replaces the dispatch-time estimate in the tenant's attained
// service (the true-up that keeps live-mode accounting honest); <= 0
// keeps the estimate.
func (s *Scheduler) Complete(id string, now, actualSeconds float64) error {
	job, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("service: complete of unknown job %q", id)
	}
	if !job.inflight {
		return fmt.Errorf("service: job %q completed before dispatch", id)
	}
	delete(s.jobs, id)
	t := s.tenants[job.Tenant]
	s.used -= job.VCPUs
	t.inflight--
	t.completed++
	served := job.cost()
	if actualSeconds > 0 {
		actual := float64(job.VCPUs) * actualSeconds
		t.vtime += (actual - served) / t.weight
		served = actual
	}
	t.servedCost += served
	return nil
}

// TenantStat is one tenant's externally visible accounting snapshot.
type TenantStat struct {
	Tenant     string  `json:"tenant"`
	Weight     float64 `json:"weight"`
	Queued     int     `json:"queued"`
	Inflight   int     `json:"inflight"`
	Submitted  int64   `json:"submitted"`
	Rejected   int64   `json:"rejected"`
	Dispatched int64   `json:"dispatched"`
	Completed  int64   `json:"completed"`
	// ServedVCPUSeconds is completed admitted work, the fairness
	// measure.
	ServedVCPUSeconds float64 `json:"served_vcpu_seconds"`
	VirtualTime       float64 `json:"virtual_time"`
}

// Stats snapshots every tenant, sorted by name.
func (s *Scheduler) Stats() []TenantStat {
	out := make([]TenantStat, 0, len(s.names))
	for _, name := range s.names {
		t := s.tenants[name]
		out = append(out, TenantStat{
			Tenant: t.name, Weight: t.weight,
			Queued: len(t.queue), Inflight: t.inflight,
			Submitted: t.submitted, Rejected: t.rejected,
			Dispatched: t.dispatched, Completed: t.completed,
			ServedVCPUSeconds: t.servedCost, VirtualTime: t.vtime,
		})
	}
	return out
}

// UsedVCPUs reports currently dispatched vCPUs.
func (s *Scheduler) UsedVCPUs() int { return s.used }

// JainIndex computes Jain's fairness index over per-tenant
// weight-normalized served vCPU-seconds: 1 is perfectly fair, 1/n is
// maximally unfair. Tenants that never submitted are excluded.
func JainIndex(stats []TenantStat) float64 {
	var sum, sumSq float64
	n := 0
	for _, st := range stats {
		if st.Submitted == 0 {
			continue
		}
		x := st.ServedVCPUSeconds / st.Weight
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}
