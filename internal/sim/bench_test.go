package sim

import (
	"fmt"
	"testing"
)

// layeredJobs builds a pipeline-shaped DAG: stages x batches jobs where
// batch b of stage s depends on batch b of stage s-1 — the shape the
// dataflow lowering produces.
func layeredJobs(stages, batches int) ([]Job, []Pool) {
	var jobs []Job
	var pools []Pool
	id := JobID(0)
	for s := 0; s < stages; s++ {
		pools = append(pools, Pool{Name: fmt.Sprintf("s%d", s), Slots: 2})
		for b := 0; b < batches; b++ {
			j := Job{Cost: 0.01, Pool: int32(s)}
			if s > 0 {
				j.Deps = []JobID{id - JobID(batches)}
			}
			jobs = append(jobs, j)
			id++
		}
	}
	return jobs, pools
}

func BenchmarkSchedulePipeline(b *testing.B) {
	jobs, pools := layeredJobs(8, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(jobs, pools); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleWide(b *testing.B) {
	var jobs []Job
	for i := 0; i < 4096; i++ {
		jobs = append(jobs, Job{Cost: 0.5})
	}
	pools := []Pool{{Name: "cpu", Slots: 16}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(jobs, pools); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalPath(b *testing.B) {
	jobs, _ := layeredJobs(8, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CriticalPath(jobs); err != nil {
			b.Fatal(err)
		}
	}
}
