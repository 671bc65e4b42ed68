package service

import (
	"container/heap"
	"fmt"
	"slices"
)

// CostFn reports a job's service time in simulated seconds. The
// serving experiment backs it with measured core run times; tests use
// synthetic tables.
type CostFn func(j *Job) float64

// SimReport is the outcome of one open-loop simulation at one offered
// load.
type SimReport struct {
	// Arrivals, Admitted, Rejected and Completed count jobs. Admitted =
	// Completed once the simulation drains.
	Arrivals  int `json:"arrivals"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	// P50/P99/Mean summarize sojourn time (completion - arrival) over
	// completed jobs, in sim seconds.
	P50Latency  float64 `json:"p50_latency"`
	P99Latency  float64 `json:"p99_latency"`
	MeanLatency float64 `json:"mean_latency"`
	// Makespan is the time of the last completion.
	Makespan float64 `json:"makespan"`
	// GoodputVCPUSeconds is the completed admitted work; Utilization
	// divides its rate by the vCPU budget.
	GoodputVCPUSeconds float64 `json:"goodput_vcpu_seconds"`
	Utilization        float64 `json:"utilization"`
	// Jain is Jain's fairness index over weight-normalized per-tenant
	// served vCPU-seconds.
	Jain    float64      `json:"jain"`
	Tenants []TenantStat `json:"tenants"`
}

// simEvent is one completion in the event heap.
type simEvent struct {
	at  float64
	seq int64
	job *Job
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() (float64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Simulate drives the scheduler through an open-loop arrival stream as
// a discrete-event simulation: arrivals submit (admission control may
// reject), the fair-share core dispatches whatever fits the budget,
// and completions fire cost(job) sim-seconds after dispatch. The
// stream is drained to the last completion. Everything is
// deterministic: same config, arrivals and costs — same report.
func Simulate(cfg Config, arrivals []Arrival, cost CostFn) (*SimReport, error) {
	if cost == nil {
		return nil, fmt.Errorf("service: Simulate needs a cost function")
	}
	s := NewScheduler(cfg)
	rep := &SimReport{Arrivals: len(arrivals)}
	var (
		done      eventHeap
		seq       int64
		latencies []float64
	)
	pump := func(now float64) {
		for {
			job, ok := s.Next(now)
			if !ok {
				return
			}
			seq++
			heap.Push(&done, simEvent{at: now + job.EstSeconds, seq: seq, job: job})
		}
	}
	next := 0
	for next < len(arrivals) || done.Len() > 0 {
		// Completions at time t free budget and queue space before an
		// arrival at the same t is admitted.
		ct, hasC := done.peek()
		if hasC && (next >= len(arrivals) || ct <= arrivals[next].At) {
			ev := heap.Pop(&done).(simEvent)
			if err := s.Complete(ev.job.ID, ev.at, 0); err != nil {
				return nil, err
			}
			rep.Completed++
			lat := ev.at - ev.job.SubmitAt
			latencies = append(latencies, lat)
			rep.MeanLatency += lat
			rep.GoodputVCPUSeconds += ev.job.cost()
			if ev.at > rep.Makespan {
				rep.Makespan = ev.at
			}
			pump(ev.at)
			continue
		}
		a := arrivals[next]
		next++
		spec, err := a.Spec.Normalize()
		if err != nil {
			return nil, err
		}
		job := Job{
			Tenant:     spec.Tenant,
			Priority:   spec.Priority,
			VCPUs:      spec.Workers,
			Spec:       spec,
			EstSeconds: 1,
		}
		job.EstSeconds = cost(&job)
		if job.EstSeconds <= 0 {
			return nil, fmt.Errorf("service: non-positive cost for task %q", spec.Task)
		}
		if _, err := s.Submit(job, a.At); err != nil {
			switch err.(type) {
			case *ErrTenantSaturated, *ErrJobTooLarge:
				rep.Rejected++
				continue
			default:
				return nil, err
			}
		}
		rep.Admitted++
		pump(a.At)
	}
	if n := len(latencies); n > 0 {
		rep.MeanLatency /= float64(n)
		slices.Sort(latencies)
		rep.P50Latency = latencies[(n-1)/2]
		rep.P99Latency = latencies[int(0.99*float64(n-1))]
	}
	rep.Tenants = s.Stats()
	rep.Jain = JainIndex(rep.Tenants)
	if rep.Makespan > 0 {
		rep.Utilization = rep.GoodputVCPUSeconds / (rep.Makespan * float64(s.Budget()))
	}
	return rep, nil
}
