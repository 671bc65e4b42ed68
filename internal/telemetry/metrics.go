// Package telemetry is the reproduction's observability layer: a
// zero-allocation-on-hot-path metrics registry plus a span recorder
// that stamps execution spans with both the simulator's virtual clock
// and the host's wall clock.
//
// Both paradigms — the dataflow executor and the notebook/Ray script
// backend — report into the same Recorder, so a script run and a
// workflow run of the same task emit directly comparable traces. The
// deterministic half of the data (counters derived from data volumes,
// virtual-clock spans, critical-path breakdowns) is exported bit-equal
// across runs; wall-clock profiling data (batch latency histograms,
// queue-depth gauges, per-node wall spans) is kept in a separate
// volatile section that deterministic exports omit. See DESIGN.md,
// "Telemetry" for the dual-stamping rule.
package telemetry

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. Add is wait-free and
// allocation-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the counter's total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge tracks a sampled level (for example queue depth): its most
// recent sample and its high-water mark.
type Gauge struct {
	last, max atomic.Int64
}

// Set records a sample, updating the maximum.
func (g *Gauge) Set(v int64) {
	g.last.Store(v)
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Last returns the most recent sample.
func (g *Gauge) Last() int64 { return g.last.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// HistBuckets is the fixed bucket count of every histogram: bucket i
// holds samples v with bits.Len64(v) == i, i.e. power-of-two ranges
// [2^(i-1), 2^i). Bucket 0 holds zero and negative samples; the last
// bucket absorbs everything larger.
const HistBuckets = 40

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// wait-free and allocation-free.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) { h.buckets[bucketOf(v)].Add(1) }

// Buckets returns the bucket counts.
func (h *Histogram) Buckets() [HistBuckets]int64 {
	var out [HistBuckets]int64
	for b := range out {
		out[b] = h.buckets[b].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for _, c := range h.Buckets() {
		total += c
	}
	return total
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// metric is one registered instrument.
type metric struct {
	name     string
	unit     string
	volatile bool // excluded from deterministic exports
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// Registry holds named instruments. Registration allocates; the
// returned instruments are then written without locks or allocations.
// Register instruments at setup time, not on the hot path.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter registers (or fetches) a deterministic counter: its value
// depends only on the data processed, so it appears in deterministic
// exports.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, "count", false)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or fetches) a gauge. Gauges sample scheduler-timing
// dependent levels, so they are volatile: deterministic exports omit
// them.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, "level", true)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers (or fetches) a volatile histogram with the given
// unit label (for example "ns").
func (r *Registry) Histogram(name, unit string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, unit, true)
	if m.hist == nil {
		m.hist = &Histogram{}
	}
	return m.hist
}

// get registers or fetches the named metric. The caller holds r.mu and
// fills the instrument in before releasing it: runs sharing one
// recorder register instruments while another run's sampler snapshots,
// so every field of a metric is written under the lock Snapshot copies
// it under.
func (r *Registry) get(name, unit string, volatile bool) *metric {
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := &metric{name: name, unit: unit, volatile: volatile}
	r.metrics[name] = m
	return m
}

// CounterValue is one counter's value in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's state in a snapshot.
type GaugeValue struct {
	Name string `json:"name"`
	Last int64  `json:"last"`
	Max  int64  `json:"max"`
}

// HistogramValue is one histogram's zero-suppressed buckets.
type HistogramValue struct {
	Name    string       `json:"name"`
	Unit    string       `json:"unit"`
	Count   int64        `json:"count"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	Low   int64 `json:"low"` // inclusive lower bound
	Count int64 `json:"count"`
}

// MetricsSnapshot is a point-in-time read of every instrument, with
// names sorted so the encoding is deterministic for a given state.
type MetricsSnapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot reads every instrument. When includeVolatile is false only
// deterministic counters are reported — the mode the golden tests and
// deterministic exports use.
func (r *Registry) Snapshot(includeVolatile bool) MetricsSnapshot {
	r.mu.Lock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, *m)
	}
	r.mu.Unlock()
	slices.SortFunc(ms, func(a, b metric) int { return cmp.Compare(a.name, b.name) })

	var snap MetricsSnapshot
	for _, m := range ms {
		if m.volatile && !includeVolatile {
			continue
		}
		switch {
		case m.counter != nil:
			snap.Counters = append(snap.Counters, CounterValue{Name: m.name, Value: m.counter.Value()})
		case m.gauge != nil:
			snap.Gauges = append(snap.Gauges, GaugeValue{Name: m.name, Last: m.gauge.Last(), Max: m.gauge.Max()})
		case m.hist != nil:
			hv := HistogramValue{Name: m.name, Unit: m.unit, Count: m.hist.Count()}
			for i, c := range m.hist.Buckets() {
				if c > 0 {
					hv.Buckets = append(hv.Buckets, HistBucket{Low: BucketLow(i), Count: c})
				}
			}
			snap.Histograms = append(snap.Histograms, hv)
		}
	}
	return snap
}

// Visit reads every counter and gauge without building a snapshot:
// counter gets each counter's name and value, gauge each gauge's name,
// last sample and high-water mark, in no fixed order, and volatile
// instruments included. A name registered as both reads as its counter,
// as in Snapshot. Histograms are skipped. Both callbacks run under the
// registry's lock, so they must not call back into r.
func (r *Registry) Visit(counter func(name string, value int64), gauge func(name string, last, max int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics { //lint:allow maporder callers fold order-insensitive integer sums and maxima
		switch {
		case m.counter != nil:
			counter(m.name, m.counter.Value())
		case m.gauge != nil:
			gauge(m.name, m.gauge.Last(), m.gauge.Max())
		}
	}
}
