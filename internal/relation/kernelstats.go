package relation

import "sync/atomic"

// Kernel call counters: each table-level operator bumps one counter per
// call. The counts feed the EXPLAIN profile; they are process-global
// and monotonic, so profile builders read a delta around the run they
// observe. One relaxed atomic add per table-level call is noise next to
// the kernel it counts.
var kstats struct {
	project, group, join, encode atomic.Int64
}

// KernelStats is a point-in-time reading of the kernel call counters,
// one per operator.
type KernelStats struct {
	Project int64 `json:"project"`
	Group   int64 `json:"group"`
	Join    int64 `json:"join"`
	Encode  int64 `json:"encode"`
}

// KernelCounts snapshots the process-global kernel call counters.
func KernelCounts() KernelStats {
	return KernelStats{
		Project: kstats.project.Load(),
		Group:   kstats.group.Load(),
		Join:    kstats.join.Load(),
		Encode:  kstats.encode.Load(),
	}
}

// Sub returns s minus t, the per-field delta between two readings.
func (s KernelStats) Sub(t KernelStats) KernelStats {
	return KernelStats{
		Project: s.Project - t.Project,
		Group:   s.Group - t.Group,
		Join:    s.Join - t.Join,
		Encode:  s.Encode - t.Encode,
	}
}

// Row totals the calls across operators.
func (s KernelStats) Row() int64 {
	return s.Project + s.Group + s.Join + s.Encode
}

// Columnar is always 0: there is one engine. benchmark/measure.go reads
// it and may not be edited alongside engine code; it goes when the
// benchmark retires its relation.kernel_col_calls row.
func (s KernelStats) Columnar() int64 { return 0 }
