package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
)

// chromeEvent is one trace event in the Chrome trace-event format
// (loadable in chrome://tracing and Perfetto). Field order and map-key
// sorting are fixed by encoding/json, so identical span data encodes
// to identical bytes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Meta            map[string]string `json:"metadata,omitempty"`
}

// ExportOptions controls trace export.
type ExportOptions struct {
	// IncludeWall adds wall-clock spans and wall-derived args to the
	// export. Wall data varies run to run, so leave this false for
	// deterministic (golden-comparable) output.
	IncludeWall bool
}

// WriteChromeTrace writes the recorder's spans as Chrome trace-event
// JSON. The timeline is the simulator's virtual clock (microseconds),
// which makes the export deterministic; each paradigm's run is one
// trace process, each operator/actor track one or more thread lanes
// (overlapping spans within a track are unpacked onto extra lanes so
// Perfetto shows true concurrency).
func (r *Recorder) WriteChromeTrace(w io.Writer, opts ExportOptions) error {
	spans := r.Spans()

	// Deterministic global order: virtual spans by (proc, start, track,
	// name, worker); wall spans afterwards.
	slices.SortStableFunc(spans, func(a, b Span) int {
		if c := cmp.Compare(a.Proc, b.Proc); c != 0 {
			return c
		}
		if a.HasVirt != b.HasVirt {
			if a.HasVirt {
				return -1
			}
			return 1
		}
		as, bs := a.Virtual.Start, b.Virtual.Start
		if !a.HasVirt {
			as, bs = float64(a.Clock.StartNS), float64(b.Clock.StartNS)
		}
		return cmp.Or(cmp.Compare(as, bs), cmp.Compare(a.Track, b.Track), cmp.Compare(a.Name, b.Name), cmp.Compare(a.Worker, b.Worker))
	})

	type procKey struct {
		label string
		wall  bool
	}
	pidOf := make(map[procKey]int)
	nextPid := 1
	type trackKey struct {
		pid   int
		track string
	}
	// Lane state per track: end time of each assigned lane.
	laneEnds := make(map[trackKey][]float64)
	tidOf := make(map[trackKey]int) // base tid of the track's lane 0
	tidNames := make(map[int]map[int]string)
	nextTid := make(map[int]int)

	var events []chromeEvent
	procName := func(pk procKey) int {
		if pid, ok := pidOf[pk]; ok {
			return pid
		}
		pid := nextPid
		nextPid++
		pidOf[pk] = pid
		label := pk.label
		if pk.wall {
			label += " (wall)"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": label},
		}, chromeEvent{
			Name: "process_sort_index", Ph: "M", Pid: pid,
			Args: map[string]any{"sort_index": pid},
		})
		tidNames[pid] = make(map[int]string)
		nextTid[pid] = 1
		return pid
	}

	for i := range spans {
		s := &spans[i]
		isWall := !s.HasVirt
		if isWall && !opts.IncludeWall {
			continue
		}
		pid := procName(procKey{s.Proc, isWall})
		var start, dur float64 // microseconds
		if s.HasVirt {
			start, dur = s.Virtual.Start*1e6, s.Virtual.Dur*1e6
		} else {
			start, dur = float64(s.Clock.StartNS)/1e3, float64(s.Clock.DurNS)/1e3
		}
		tk := trackKey{pid, s.Track}
		ends, ok := laneEnds[tk]
		if !ok {
			tidOf[tk] = nextTid[pid]
		}
		lane := -1
		for li, end := range ends {
			if end <= start {
				lane = li
				break
			}
		}
		if lane < 0 {
			lane = len(ends)
			ends = append(ends, 0)
			name := s.Track
			if lane > 0 {
				name = fmt.Sprintf("%s #%d", s.Track, lane)
			}
			tid := tidOf[tk] + lane
			if tid >= nextTid[pid] {
				nextTid[pid] = tid + 1
			}
			tidNames[pid][tid] = name
		}
		ends[lane] = start + dur
		laneEnds[tk] = ends

		args := map[string]any{}
		if s.Worker > 0 {
			args["worker"] = s.Worker
		}
		if s.Tuples > 0 {
			args["tuples"] = s.Tuples
		}
		if opts.IncludeWall && s.HasWall && s.HasVirt {
			args["wall_us"] = float64(s.Clock.DurNS) / 1e3
		}
		if len(args) == 0 {
			args = nil
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: start, Dur: dur, Pid: pid, Tid: tidOf[tk] + lane,
			Args: args,
		})
	}

	// Thread-name metadata, emitted in sorted order.
	var pids []int
	for _, pid := range pidOf {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		var tids []int
		for tid := range tidNames[pid] {
			tids = append(tids, tid)
		}
		slices.Sort(tids)
		for _, tid := range tids {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": tidNames[pid][tid]},
			}, chromeEvent{
				Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"sort_index": tid},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Meta:            r.Meta(),
	})
}

// MetaKV is one metadata entry in a metrics dump.
type MetaKV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// WallTotal aggregates one track's wall-clock spans (volatile).
type WallTotal struct {
	Proc   string  `json:"proc"`
	Track  string  `json:"track"`
	Spans  int     `json:"spans"`
	BusyMS float64 `json:"busy_ms"`
}

// MetricsDump is the serializable metrics report. With Volatile nil
// (the deterministic mode) every field is a pure function of the data
// processed and the virtual schedule, so two runs of a deterministic
// workload dump byte-identical reports.
type MetricsDump struct {
	Meta         []MetaKV        `json:"meta,omitempty"`
	Tracks       []TrackTotal    `json:"tracks,omitempty"`
	CriticalPath []CriticalRow   `json:"critical_path,omitempty"`
	Metrics      MetricsSnapshot `json:"metrics"`
	Volatile     *VolatileDump   `json:"volatile,omitempty"`
}

// VolatileDump carries the wall-clock profiling data.
type VolatileDump struct {
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
	WallTracks []WallTotal      `json:"wall_tracks,omitempty"`
}

// Dump assembles the metrics report. includeVolatile adds the
// wall-clock section; leave it false for deterministic output.
func (r *Recorder) Dump(includeVolatile bool) MetricsDump {
	d := MetricsDump{
		Tracks:  r.TrackTotals(),
		Metrics: r.Metrics.Snapshot(false),
	}
	meta := r.Meta()
	for _, k := range slices.Sorted(maps.Keys(meta)) {
		d.Meta = append(d.Meta, MetaKV{Key: k, Value: meta[k]})
	}
	crit := r.Critical()
	slices.SortStableFunc(crit, func(a, b CriticalRow) int { return cmp.Compare(a.Proc, b.Proc) })
	d.CriticalPath = crit

	if includeVolatile {
		vol := r.Metrics.Snapshot(true)
		v := &VolatileDump{Gauges: vol.Gauges, Histograms: vol.Histograms}
		for _, t := range r.sumTracks(true) {
			v.WallTracks = append(v.WallTracks, WallTotal{Proc: t.proc, Track: t.track, Spans: t.spans, BusyMS: t.sum})
		}
		d.Volatile = v
	}
	return d
}

// WriteMetrics writes the metrics dump as indented JSON.
func (r *Recorder) WriteMetrics(w io.Writer, includeVolatile bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Dump(includeVolatile))
}

// WriteSummary writes a human-readable per-run summary: metadata, each
// process's busiest tracks, the critical-path breakdown, and (marked
// as non-deterministic) the wall-clock profile.
func (r *Recorder) WriteSummary(w io.Writer) {
	meta := r.Meta()
	fmt.Fprintln(w, "== telemetry summary")
	for _, k := range slices.Sorted(maps.Keys(meta)) {
		fmt.Fprintf(w, "   %s = %s\n", k, meta[k])
	}

	crit := r.Critical()
	for _, proc := range r.Procs() {
		totals := r.TopSelfTime(proc, 0)
		var busy float64
		for _, t := range totals {
			busy += t.SelfSeconds
		}
		fmt.Fprintf(w, "-- %s: %d tracks, %.2f busy sim-seconds\n", proc, len(totals), busy)
		top := totals
		if len(top) > 5 {
			top = top[:5]
		}
		for _, t := range top {
			share := 0.0
			if busy > 0 {
				share = 100 * t.SelfSeconds / busy
			}
			fmt.Fprintf(w, "   %-28s %6d spans %10.3fs self %5.1f%%\n", t.Track, t.Spans, t.SelfSeconds, share)
		}
		var critTotal float64
		var rows []CriticalRow
		for _, c := range crit {
			if c.Proc == proc {
				rows = append(rows, c)
				critTotal += c.Seconds
			}
		}
		if len(rows) > 0 {
			fmt.Fprintf(w, "   critical path: %.2fs\n", critTotal)
			for _, c := range rows {
				share := 0.0
				if critTotal > 0 {
					share = 100 * c.Seconds / critTotal
				}
				fmt.Fprintf(w, "     %-26s %6d jobs  %10.3fs %5.1f%%\n", c.Track, c.Jobs, c.Seconds, share)
			}
		}
	}

	vol := r.Metrics.Snapshot(true)
	wallTracks := r.Dump(true).Volatile.WallTracks
	if len(vol.Gauges)+len(vol.Histograms)+len(wallTracks) > 0 {
		fmt.Fprintln(w, "-- wall-clock profile (non-deterministic)")
		for _, g := range vol.Gauges {
			fmt.Fprintf(w, "   gauge %-32s last=%d max=%d\n", g.Name, g.Last, g.Max)
		}
		for _, h := range vol.Histograms {
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "   hist  %-32s n=%d p50<=%d%s p99<=%d%s\n",
				h.Name, h.Count, quantileHigh(h, 0.50), h.Unit, quantileHigh(h, 0.99), h.Unit)
		}
		for _, t := range wallTracks {
			fmt.Fprintf(w, "   wall  %s/%s: %d spans, %.2fms busy\n", t.Proc, t.Track, t.Spans, t.BusyMS)
		}
	}
}

// quantileHigh returns the upper bound of the bucket containing the
// q-quantile observation.
func quantileHigh(h HistogramValue, q float64) int64 {
	target := int64(q * float64(h.Count))
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen > target {
			if b.Low == 0 {
				return 0
			}
			return b.Low*2 - 1
		}
	}
	if n := len(h.Buckets); n > 0 {
		return h.Buckets[n-1].Low*2 - 1
	}
	return 0
}
