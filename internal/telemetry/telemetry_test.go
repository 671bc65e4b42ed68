package telemetry

import (
	"sync"
	"testing"
)

// TestCounterShardsMerge has 32 goroutines add to one counter at once:
// the total must be exact.
func TestCounterShardsMerge(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 32*1000*2 {
		t.Fatalf("counter = %d, want %d", got, 32*1000*2)
	}
}

func TestGaugeTracksMax(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(9)
	g.Set(3)
	if got := g.Max(); got != 9 {
		t.Fatalf("max = %d, want 9", got)
	}
	if got := g.Last(); got != 3 { // the most recent sample
		t.Fatalf("last = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1: [1,2)
	h.Observe(3)    // bucket 2: [2,4)
	h.Observe(1024) // bucket 11: [1024,2048)
	b := h.Buckets()
	if b[0] != 1 || b[1] != 1 || b[2] != 1 || b[11] != 1 {
		t.Fatalf("unexpected buckets: %v", b[:12])
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if BucketLow(11) != 1024 {
		t.Fatalf("BucketLow(11) = %d", BucketLow(11))
	}
}

func TestRegistryAllocFreeHotPath(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("tuples")
	h := reg.Histogram("latency", "ns")
	g := reg.Gauge("depth")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(17)
		g.Set(4)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", allocs)
	}
}

func TestSnapshotVolatileFiltering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.tuples").Add(7)
	reg.Gauge("q.depth").Set(3)
	reg.Histogram("lat", "ns").Observe(5)

	det := reg.Snapshot(false)
	if len(det.Counters) != 1 || det.Counters[0].Value != 7 {
		t.Fatalf("deterministic counters = %+v", det.Counters)
	}
	if len(det.Gauges) != 0 || len(det.Histograms) != 0 {
		t.Fatalf("volatile instruments leaked into deterministic snapshot: %+v", det)
	}
	full := reg.Snapshot(true)
	if len(full.Gauges) != 1 || len(full.Histograms) != 1 {
		t.Fatalf("full snapshot missing volatile instruments: %+v", full)
	}
}

func TestTrackTotalsAndTopSelfTime(t *testing.T) {
	r := New()
	r.Record(
		Span{Proc: "workflow:x", Track: "join", Name: "join:p0:b0", HasVirt: true, Virtual: Virt{Start: 0, Dur: 2}},
		Span{Proc: "workflow:x", Track: "join", Name: "join:p0:b1", HasVirt: true, Virtual: Virt{Start: 2, Dur: 3}},
		Span{Proc: "workflow:x", Track: "scan", Name: "scan:gen:b0", HasVirt: true, Virtual: Virt{Start: 0, Dur: 1}},
		Span{Proc: "workflow:x", Track: "scan", Name: "wall-only", HasWall: true, Clock: Wall{StartNS: 5, DurNS: 10}},
	)
	totals := r.TrackTotals()
	if len(totals) != 2 {
		t.Fatalf("tracks = %+v", totals)
	}
	top := r.TopSelfTime("workflow:x", 1)
	if len(top) != 1 || top[0].Track != "join" || top[0].SelfSeconds != 5 {
		t.Fatalf("top = %+v", top)
	}
	if got := r.Procs(); len(got) != 1 || got[0] != "workflow:x" {
		t.Fatalf("procs = %v", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Span{Name: "x"})
	r.SetMeta("k", "v")
	r.AddCritical(CriticalRow{Track: "t"})
}
