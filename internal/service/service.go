package service

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Runner executes one dispatched job synchronously. It runs on a
// worker goroutine; returning releases the job's vCPUs back to the
// scheduler. The runner owns all result handling, errors included (the
// service itself never sees task outputs).
type Runner func(job *Job)

// Service is the live multi-tenant wrapper around Scheduler: Submit
// queues under admission control, a dispatch pump launches admitted
// jobs on worker goroutines through the Runner, and completions
// re-pump. All scheduler decisions happen under one mutex, so dispatch
// order is exactly the deterministic core's.
type Service struct {
	runner Runner
	epoch  time.Time

	mu     sync.Mutex
	sched  *Scheduler
	closed bool
	wg     sync.WaitGroup
}

// New builds a service around a scheduler config and a runner.
func New(cfg Config, runner Runner) *Service {
	if runner == nil {
		panic("service: New needs a runner")
	}
	return &Service{
		runner: runner,
		epoch:  telemetry.WallClock(),
		sched:  NewScheduler(cfg),
	}
}

// now is the service clock: wall seconds since construction.
func (s *Service) now() float64 { return telemetry.WallSince(s.epoch).Seconds() }

// Submit queues a job and pumps the dispatcher. It returns the
// scheduler's stamped copy, or a typed admission error
// (ErrTenantSaturated, ErrJobTooLarge) without side effects.
func (s *Service) Submit(job Job) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("service: closed")
	}
	stamped, err := s.sched.Submit(job, s.now())
	if err != nil {
		return nil, err
	}
	s.pumpLocked()
	return stamped, nil
}

// pumpLocked dispatches every job that fits the free budget. Callers
// hold s.mu. Worker goroutines are accounted in s.wg before the pump
// returns, so Close cannot miss them.
func (s *Service) pumpLocked() {
	for {
		job, ok := s.sched.Next(s.now())
		if !ok {
			return
		}
		s.wg.Add(1)
		go s.exec(job)
	}
}

// exec runs one dispatched job, completes it, and re-pumps.
func (s *Service) exec(job *Job) {
	defer s.wg.Done()
	start := telemetry.WallClock()
	s.runner(job)
	actual := telemetry.WallSince(start).Seconds()
	s.mu.Lock()
	// Complete fails only for a job the scheduler did not dispatch, and
	// exec runs only dispatched jobs.
	_ = s.sched.Complete(job.ID, s.now(), actual)
	s.pumpLocked()
	s.mu.Unlock()
}

// Stats snapshots per-tenant accounting.
func (s *Service) Stats() []TenantStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Stats()
}

// Budget returns the admitted vCPU budget.
func (s *Service) Budget() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Budget()
}

// UsedVCPUs reports currently dispatched vCPUs.
func (s *Service) UsedVCPUs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.UsedVCPUs()
}

// Close stops accepting submissions and waits for queued and
// in-flight jobs to finish.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}
