package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/relation"
	"repro/internal/telemetry"
)

// workload is what the measuring loops drive: closed-loop clients that
// each run one op at a time.
type workload interface {
	clients() int
	// op runs one operation as the given client; ot is nil when the op
	// is untraced. It returns the op's counts and fails on any error,
	// digest or simulated-seconds mismatch.
	op(client int, ot *opTrace) (counts, error)
	// counters reads monotonic process- and server-wide totals, keyed
	// by the per-layer metric they feed.
	counters() (counts, error)
	close()
}

// processCounters reads the process-wide monotonic totals.
func processCounters() counts {
	k := relation.KernelCounts()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counts{
		"relation.kernel_col_calls": float64(k.Columnar()),
		"relation.kernel_row_calls": float64(k.Row()),
		"runtime.gc_cycles":         float64(ms.NumGC),
		"runtime.gc_pause_ms":       float64(ms.PauseTotalNs) / 1e6,
	}
}

// addDelta folds after−before into c.
func (c counts) addDelta(before, after counts) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// budget says when a phase ends: after a fixed number of ops, or once
// the given time has passed and at least min ops have started. A traced
// phase counts its traced ops only.
type budget struct {
	ops     int // > 0: exactly this many ops
	seconds float64
	min     int
}

// sample is one finished op.
type sample struct {
	ms     float64
	traced bool
	// settle marks an op that ran only to bring the collector back to
	// its steady pace after side probes; its latency is not used.
	settle bool
	counts counts
	err    error
}

// phase is one run of the client loops.
type phase struct {
	w      workload
	name   string
	budget budget
	// tr, when set, makes the phase alternate untraced and traced ops,
	// so the two kinds see the same drift.
	tr *tracer
}

// run drives the workload's clients until the budget is spent and
// returns the samples in completion order.
func (p *phase) run() []sample {
	var (
		mu      sync.Mutex
		started int
		samples []sample
		wg      sync.WaitGroup
	)
	start := telemetry.WallClock()
	// An in-process workload has one client and runs side probes after
	// each traced op. The op after a probe meets a collector that has
	// gone quiet and pays for its restart, so one unmeasured op follows:
	// the cycle is settle, untraced, traced. Without probes it is
	// untraced, traced.
	inProcess := p.w.clients() == 1
	cycle := 1
	if p.tr != nil {
		cycle = 2
		if inProcess {
			cycle = 3
		}
	}
	// claim hands out op indices.
	claim := func() (idx int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if p.budget.ops > 0 {
			if started >= cycle*p.budget.ops {
				return 0, false
			}
		} else if started >= cycle*p.budget.min && telemetry.WallSince(start).Seconds() >= p.budget.seconds {
			return 0, false
		}
		started++
		return started - 1, true
	}
	for client := 0; client < p.w.clients(); client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for idx, ok := claim(); ok; idx, ok = claim() {
				var s sample
				if pos := idx % cycle; p.tr != nil && pos == cycle-1 {
					s = p.tracedOp(client, inProcess)
				} else {
					s.settle = cycle == 3 && pos == 0
					t0 := telemetry.WallClock()
					s.counts, s.err = p.w.op(client, nil)
					s.ms = float64(telemetry.WallSince(t0)) / 1e6
				}
				if s.err == nil && s.ms > float64(opTimeout/time.Millisecond) {
					s.err = fmt.Errorf("op took %.0f ms, over the %v limit", s.ms, opTimeout)
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(client)
	}
	wg.Wait()
	return samples
}

// tracedOp runs one op under a root span, then the op's side probes.
// In process nothing else runs, so the process-wide counters are read
// around the op itself.
func (p *phase) tracedOp(client int, readCounters bool) sample {
	s := sample{traced: true}
	var before counts
	if readCounters {
		before, s.err = p.w.counters()
		if s.err != nil {
			return s
		}
	}
	ot := p.tr.startOp(p.name, client)
	t0 := telemetry.WallClock()
	s.counts, s.err = p.w.op(client, ot)
	s.ms = float64(telemetry.WallSince(t0)) / 1e6
	ot.endOp()
	if s.err != nil {
		return s
	}
	if readCounters {
		after, err := p.w.counters()
		if err != nil {
			s.err = err
			return s
		}
		s.counts.addDelta(before, after)
	}
	if ot.rec != nil {
		s.counts.addRecorder(ot.rec)
	}
	for _, pr := range ot.probes {
		if s.err = pr.run(ot, s.counts); s.err != nil {
			break
		}
	}
	return s
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// liveHeapMB forces a collection and reads what survived it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// usage is what one stretch of ops cost the process.
type usage struct {
	wall, cpu      float64 // seconds
	alloc, mallocs uint64
}

// metered runs the phase and meters the process around it.
func metered(p *phase) (u usage, samples []sample, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return u, nil, err
	}
	t0 := telemetry.WallClock()
	samples = p.run()
	u.wall = telemetry.WallSince(t0).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return u, nil, err
	}
	runtime.ReadMemStats(&m1)
	u.cpu, u.alloc, u.mallocs = cpu1-cpu0, m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	return u, samples, nil
}

// measureWindow runs the untraced window and derives the end-to-end
// metrics from it. One forced collection precedes the window. The only
// other one reads the live heap after the first heapOps ops: a fixed
// count, so that both sides of a comparison have retained the same
// number of runs however fast they are, and taken between two stretches
// of the window, so that no op is in flight. The collection itself is
// outside both stretches.
func measureWindow(w workload, name string, b budget, heapOps int) (values map[string]float64, samples []sample, err error) {
	head := budget{ops: heapOps}
	rest := budget{seconds: b.seconds, min: b.min - heapOps}
	if b.ops > 0 {
		if head.ops > b.ops {
			head.ops = b.ops
		}
		rest = budget{ops: b.ops - head.ops}
	}
	runtime.GC()
	u, samples, err := metered(&phase{w: w, name: name, budget: head})
	if err != nil {
		return nil, nil, err
	}
	liveHeap := liveHeapMB()
	// A budget with nothing left runs no op.
	rest.seconds -= u.wall
	u2, more, err := metered(&phase{w: w, name: name, budget: rest})
	if err != nil {
		return nil, nil, err
	}
	samples = append(samples, more...)
	u.wall, u.cpu, u.alloc, u.mallocs = u.wall+u2.wall, u.cpu+u2.cpu, u.alloc+u2.alloc, u.mallocs+u2.mallocs

	var ms []float64
	for _, s := range samples {
		if s.err == nil {
			ms = append(ms, s.ms)
		}
	}
	sort.Float64s(ms)
	n := float64(len(ms))
	if n == 0 {
		return map[string]float64{}, samples, nil
	}
	return map[string]float64{
		"op_ms_p50":       percentile(ms, 50),
		"op_ms_p90":       percentile(ms, 90),
		"ops_per_s":       n / u.wall,
		"cpu_ms_per_op":   u.cpu * 1e3 / n,
		"alloc_mb_per_op": float64(u.alloc) / 1e6 / n,
		"kallocs_per_op":  float64(u.mallocs) / 1e3 / n,
		"live_heap_mb":    liveHeap,
	}, samples, nil
}

// measureLayers runs the traced phase and derives the per-layer
// metrics: span times from the benchmark's own spans, counts from what
// the traced ops returned, and — where several clients overlap — the
// process- and server-wide counters read around the whole phase and
// divided by every op in it.
func measureLayers(w workload, name string, b budget, tr *tracer) (values map[string]float64, samples []sample, err error) {
	var before counts
	if w.clients() > 1 {
		if before, err = w.counters(); err != nil {
			return nil, nil, err
		}
	}
	firstSpan := len(tr.spans)
	p := &phase{w: w, name: name, budget: b, tr: tr}
	samples = p.run()

	values = make(map[string]float64)
	total := make(counts)
	var plainMS, tracedMS []float64
	for _, s := range samples {
		switch {
		case s.err != nil || s.settle:
		case s.traced:
			tracedMS = append(tracedMS, s.ms)
			for k, v := range s.counts {
				total[k] += v
			}
		default:
			plainMS = append(plainMS, s.ms)
		}
	}
	if len(tracedMS) == 0 {
		return values, samples, nil
	}
	for k, v := range total {
		values[k] = v / float64(len(tracedMS))
	}
	if before != nil {
		after, err := w.counters()
		if err != nil {
			return nil, nil, err
		}
		wide := make(counts)
		wide.addDelta(before, after)
		for k, v := range wide {
			values[k] = v / float64(len(tracedMS)+len(plainMS))
		}
	}

	spanMS := make(map[string][]float64)
	var unattributed []float64
	for _, o := range groupOps(tr.spans[firstSpan:], name) {
		unattributed = append(unattributed, 100*o.rootSelf/o.rootMS)
		for _, d := range perLayer {
			if d.Span != "" {
				spanMS[d.Name] = append(spanMS[d.Name], o.byName[d.Span])
			}
		}
	}
	for k, v := range spanMS {
		values[k] = median(v)
	}
	values["trace.unattributed_pct"] = median(unattributed)
	if base := median(plainMS); base > 0 {
		values["telemetry.overhead_pct"] = 100 * (median(tracedMS) - base) / base
	}
	return values, samples, nil
}
