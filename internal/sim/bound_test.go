package sim

import "fmt"

// Bounds the schedule tests hold Schedule to: a pool's utilization,
// the critical path, per-pool work and the lower bound they make.

// Utilization returns the fraction of pool p's slot-time spent busy
// over the makespan, or 0 if the makespan is zero.
func (r *Result) Utilization(p, slots int) float64 {
	if r.Makespan <= 0 || slots <= 0 {
		return 0
	}
	return r.BusyTime[p] / (r.Makespan * float64(slots))
}

// CriticalPath returns the length of the longest dependency chain
// (sum of costs and latencies), a lower bound on any schedule's
// makespan: the length of the chain CriticalChain returns. It returns
// an error on cycles or unknown dependencies.
func CriticalPath(jobs []Job) (float64, error) {
	_, length, err := longestChain(jobs)
	return length, err
}

// TotalWork returns the sum of job costs by pool position, for pools
// 0..pools-1; every job's pool must be one of them.
func TotalWork(jobs []Job, pools int) []float64 {
	w := make([]float64, pools)
	for _, j := range jobs {
		w[j.Pool] += j.Cost
	}
	return w
}

// LowerBound returns max(critical path, per-pool work / slots), a valid
// lower bound for any non-preemptive schedule of jobs on pools.
func LowerBound(jobs []Job, pools []Pool) (float64, error) {
	cp, err := CriticalPath(jobs)
	if err != nil {
		return 0, err
	}
	lb := cp
	work := TotalWork(jobs, len(pools))
	for i, p := range pools {
		if p.Slots <= 0 {
			return 0, fmt.Errorf("sim: pool %q has %d slots", p.Name, p.Slots)
		}
		if v := work[i] / float64(p.Slots); v > lb {
			lb = v
		}
	}
	return lb, nil
}
