package relation

import (
	"fmt"
	"runtime"
	"testing"
)

// probeFixture is the join-sentences shape: a 6-column probe side
// joined to a 6-column build side gives 11-column output rows. Build
// key 0 matches fanout build rows (a 1→many key) and keys 1..64 match
// one; probe keys cycle through 0..keys-1, so with keys = 1 every probe
// row is 1→many and with keys = 80 the last fifteen match nothing.
func probeFixture(probeRows, fanout, keys int) (probe, build *Table) {
	cols := func(prefix string) []Field {
		f := []Field{{"k", Int}}
		for i := 1; i < 6; i++ {
			f = append(f, Field{fmt.Sprintf("%s%d", prefix, i), String})
		}
		return f
	}
	row := func(k int64, tag string, i int) Tuple {
		t := Tuple{IntValue(k)}
		for c := 1; c < 6; c++ {
			t = append(t, StringValue(fmt.Sprintf("%s%d.%d", tag, i, c)))
		}
		return t
	}
	probe, build = NewTable(MustSchema(cols("p")...)), NewTable(MustSchema(cols("b")...))
	for i := 0; i < fanout; i++ {
		build.AppendUnchecked(row(0, "hot", i))
	}
	for i := 1; i <= 64; i++ {
		build.AppendUnchecked(row(int64(i), "b", i))
	}
	for i := 0; i < probeRows; i++ {
		probe.AppendUnchecked(row(int64(i%keys), "p", i))
	}
	return probe, build
}

// TestProbeRowsMatchesNestedLoop holds ProbeRows to the oracle row for
// row — probe order, then build order — at the batch sizes around its
// edges (empty, one, the DICE workflow's handful, a whole table).
func TestProbeRowsMatchesNestedLoop(t *testing.T) {
	for _, kind := range []JoinType{Inner, LeftOuter} {
		for _, c := range []struct{ n, keys int }{
			{0, 80}, {1, 80}, {2, 80}, {7, 80}, {1024, 80}, {1025, 80},
			{1, 1}, {7, 1}, {1025, 1},
		} {
			n := c.n
			probe, build := probeFixture(n, 40, c.keys)
			j, err := NewJoiner(probe.Schema(), build, "k", "k", kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := NewTable(j.OutputSchema())
			got.rows = j.ProbeRows(nil, probe.Rows())
			want, err := NestedLoopJoin(probe, build, "k", "k", kind)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("kind=%v batch=%d keys=%d: ProbeRows emitted %d rows that differ from the nested-loop join's %d", kind, n, c.keys, got.Len(), want.Len())
			}
			if n > 0 && got.Len() < 40 {
				t.Fatalf("kind=%v batch=%d keys=%d: %d output rows; the 1→many key alone has 40", kind, n, c.keys, got.Len())
			}
		}
	}
}

// TestProbeRowsOwnership pins what callers may do with the rows: dst is
// appended to, a row can be appended to without touching its neighbour,
// and two calls share no storage.
func TestProbeRowsOwnership(t *testing.T) {
	probe, build := probeFixture(8, 40, 80)
	j, err := NewJoiner(probe.Schema(), build, "k", "k", LeftOuter, 1)
	if err != nil {
		t.Fatal(err)
	}
	width := j.OutputSchema().Len()

	sentinel := Tuple{StringValue("sentinel")}
	out := j.ProbeRows([]Tuple{sentinel}, probe.Rows())
	if len(out) < 2 || len(out[0]) != 1 || out[0][0].Str() != "sentinel" {
		t.Fatalf("dst prefix not kept: %v", out[0])
	}
	out = out[1:]

	snapshot := make([]Tuple, len(out))
	for i, r := range out {
		if len(r) != width {
			t.Fatalf("row %d has %d columns, want %d", i, len(r), width)
		}
		snapshot[i] = r.Clone()
	}
	for i := range out {
		_ = append(out[i], StringValue("overflow"))
	}
	for i := range out {
		if !out[i].Equal(snapshot[i]) {
			t.Fatalf("append to a neighbour changed row %d: %v, was %v", i, out[i], snapshot[i])
		}
	}

	again := j.ProbeRows(nil, probe.Rows())
	for i := range again {
		for c := range again[i] {
			again[i][c] = StringValue("overwritten")
		}
	}
	for i := range out {
		if !out[i].Equal(snapshot[i]) {
			t.Fatalf("writing the second call's rows changed the first call's row %d", i)
		}
	}
}

// TestProbeRowsBytesFollowOutput is the guard on the DICE workflow's
// traffic: an 8-row 1:1 probe at width 11 emits 8×11 values (1.4 KB)
// and must allocate in proportion — the fixed 1024-row arena block this
// replaced took 180 KB for the same call.
func TestProbeRowsBytesFollowOutput(t *testing.T) {
	probe, build := probeFixture(9, 40, 80)
	j, err := NewJoiner(probe.Schema(), build, "k", "k", Inner, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch := probe.Rows()[1:9] // keys 1..8, one match each
	if n := len(j.ProbeRows(nil, batch)); n != 8 {
		t.Fatalf("fixture emitted %d rows, want 8", n)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		j.ProbeRows(nil, batch)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("8-row probe at width %d allocates %d B", j.OutputSchema().Len(), got)
	if got >= 4<<10 {
		t.Fatalf("8-row probe at width %d allocates %d B, want < 4 KiB", j.OutputSchema().Len(), got)
	}
}
