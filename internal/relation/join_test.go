package relation

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
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
			j, err := NewJoiner(probe.Schema(), build, "k", "k", kind)
			if err != nil {
				t.Fatal(err)
			}
			got := NewTable(j.OutputSchema())
			got.rows, _, _, _ = j.ProbeRows(&Arena{}, nil, probe.Rows(), nil)
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

// TestProbeRowsOwnership pins what callers may do with the rows of
// successive calls through one arena: a row can be appended to without
// touching its neighbour, a batch can be appended to without touching
// the next one (or the one before), and writing one call's rows leaves
// the other's unchanged.
func TestProbeRowsOwnership(t *testing.T) {
	probe, build := probeFixture(8, 40, 80)
	j, err := NewJoiner(probe.Schema(), build, "k", "k", LeftOuter)
	if err != nil {
		t.Fatal(err)
	}
	width := j.OutputSchema().Len()

	var a Arena
	first, heads, _, _ := j.ProbeRows(&a, nil, probe.Rows(), nil)
	second, _, _, _ := j.ProbeRows(&a, heads, probe.Rows(), nil)
	snapshot := func(rows []Tuple) []Tuple {
		out := make([]Tuple, len(rows))
		for i, r := range rows {
			if len(r) != width {
				t.Fatalf("row %d has %d columns, want %d", i, len(r), width)
			}
			out[i] = r.Clone()
		}
		return out
	}
	unchanged := func(what string, rows, want []Tuple) {
		t.Helper()
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, was %d", what, len(rows), len(want))
		}
		for i := range rows {
			if !rows[i].Equal(want[i]) {
				t.Fatalf("%s: row %d = %v, was %v", what, i, rows[i], want[i])
			}
		}
	}
	was1, was2 := snapshot(first), snapshot(second)
	if len(first) < 2 {
		t.Fatalf("fixture emitted %d rows", len(first))
	}

	for i := range first {
		_ = append(first[i], StringValue("overflow"))
	}
	unchanged("first batch after appending to each of its rows", first, was1)
	_ = append(first, Tuple{StringValue("overflow")})
	unchanged("second batch after appending to the first", second, was2)
	_ = append(second, Tuple{StringValue("overflow")})
	unchanged("first batch after appending to the second", first, was1)

	for i := range second {
		for c := range second[i] {
			second[i][c] = StringValue("overwritten")
		}
	}
	unchanged("first batch after writing the second's rows", first, was1)
}

// TestProbeRowsBytesFollowOutput is the guard on the DICE workflow's
// traffic: an 8-row 1:1 probe at width 11 emits 8×11 values (1.4 KB)
// and must allocate in proportion — the fixed 1024-row arena block this
// replaced took 180 KB for the same call.
func TestProbeRowsBytesFollowOutput(t *testing.T) {
	probe, build := probeFixture(9, 40, 80)
	j, err := NewJoiner(probe.Schema(), build, "k", "k", Inner)
	if err != nil {
		t.Fatal(err)
	}
	batch := probe.Rows()[1:9] // keys 1..8, one match each
	if rows, _, _, _ := j.ProbeRows(&Arena{}, nil, batch, nil); len(rows) != 8 {
		t.Fatalf("fixture emitted %d rows, want 8", len(rows))
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		j.ProbeRows(&Arena{}, nil, batch, nil)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("8-row probe at width %d allocates %d B", j.OutputSchema().Len(), got)
	if got >= 4<<10 {
		t.Fatalf("8-row probe at width %d allocates %d B, want < 4 KiB", j.OutputSchema().Len(), got)
	}
}

// TestProbeRowsKeepRejectsWithoutAllocating pins that a rejected row is
// only ever assembled in the arena's scratch: once one batch has sized
// the scratch row and the verdicts, a batch whose every row is
// rejected allocates nothing.
func TestProbeRowsKeepRejectsWithoutAllocating(t *testing.T) {
	probe, build := probeFixture(8, 40, 1) // every probe row matches 40 build rows
	j, err := NewJoiner(probe.Schema(), build, "k", "k", LeftOuter)
	if err != nil {
		t.Fatal(err)
	}
	none := func(Tuple) bool { return false }
	var a Arena
	heads, batch := []int32(nil), probe.Rows()
	_, heads, _, _ = j.ProbeRows(&a, heads, batch, none)
	var dropped int
	allocs := testing.AllocsPerRun(10, func() {
		var rows []Tuple
		rows, heads, dropped, _ = j.ProbeRows(&a, heads, batch, none)
		if rows != nil {
			t.Fatalf("kept %d rows", len(rows))
		}
	})
	if dropped != 8*40 || allocs != 0 {
		t.Fatalf("rejecting %d rows allocated %v objects a batch, want 320 rows and none", dropped, allocs)
	}
}

// FuzzProbeRowsKeep holds ProbeRows under a predicate to ProbeRows
// without one, and that to the reference joiner: over random build and
// probe sides, Inner and LeftOuter, a reference of 1..4 shards and probe
// batches split at random points, each batch must build exactly the
// unfiltered rows keep accepts, in order, and report the rest in dropped
// and their encoded size in droppedBytes. Cells vary in width, so a miscounted
// row shows in the bytes.
func FuzzProbeRowsKeep(f *testing.F) {
	f.Add([]byte{0, 0, 0xa5, 0, 1, 1, 1, 2, 18, 3, 2, 0, 33, 1, 4, 6, 1})
	f.Add([]byte{1, 3, 0x3c, 0, 7, 2, 0, 3, 1, 1, 5, 0, 0, 1, 1, 2, 2, 0, 19, 3, 4})
	f.Add([]byte{1, 1, 0xff, 0, 2, 2, 3, 0, 4, 1, 2, 1, 3})
	f.Add([]byte{0, 2, 0x00, 1, 1, 0, 1, 2, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		kind, shards, mask := JoinType(data[0]%2), 1+int(data[1]%4), data[2]
		ls := MustSchema(Field{"k", Int}, Field{"l", String})
		rs := MustSchema(Field{"r", Int}, Field{"k", Int})
		left, right := NewTable(ls), NewTable(rs)
		var cuts []int // probe rows that end a batch
		data = data[3:]
		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			side, v := data[i], data[i+1]
			k := IntValue(int64(v % 6))
			switch side % 3 {
			case 0:
				right.AppendUnchecked(Tuple{IntValue(int64(i)), k})
			default:
				left.AppendUnchecked(Tuple{k, StringValue(strings.Repeat("s", int(v>>3)))})
				if side%3 == 2 {
					cuts = append(cuts, left.Len())
				}
			}
		}
		cuts = append(cuts, left.Len())
		// keep reads a build cell and a probe cell, so padded rows are
		// judged too.
		keep := func(row Tuple) bool {
			return mask>>((row[2].Int()+int64(len(row[1].Str())))%8)&1 == 1
		}
		j, err := NewJoiner(ls, right, "k", "k", kind)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refNewJoiner(ls, right, "k", "k", kind, shards)
		if err != nil {
			t.Fatal(err)
		}
		var (
			plainOut, keptOut     Arena
			plainHeads, keptHeads []int32
		)
		lo := 0
		for _, hi := range cuts {
			batch := left.Rows()[lo:hi]
			lo = hi
			var plain, got []Tuple
			var dropped int
			var droppedBytes int64
			plain, plainHeads, dropped, droppedBytes = j.ProbeRows(&plainOut, plainHeads, batch, nil)
			if dropped != 0 || droppedBytes != 0 {
				t.Fatalf("nil keep dropped %d rows (%d B)", dropped, droppedBytes)
			}
			sameRows(t, "unfiltered against the reference", plain, ref.ProbeRows(nil, batch))
			got, keptHeads, dropped, droppedBytes = j.ProbeRows(&keptOut, keptHeads, batch, keep)
			var want []Tuple
			wantDropped, wantBytes := 0, int64(0)
			for _, r := range plain {
				if keep(r) {
					want = append(want, r)
				} else {
					wantDropped++
					wantBytes += EncodedSize(r)
				}
			}
			sameRows(t, "kept rows against the filtered unfiltered ones", got, want)
			if dropped != wantDropped || droppedBytes != wantBytes {
				t.Fatalf("dropped %d rows of %d B, want %d of %d B", dropped, droppedBytes, wantDropped, wantBytes)
			}
		}
	})
}

// sameRows fails unless got and want hold the same rows in the same
// order, compared by their encoded bytes: NaN cells are equal to
// themselves there, and -0 differs from +0.
func sameRows(t *testing.T, what string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := EncodeTuple(nil, got[i]), EncodeTuple(nil, want[i]); string(g) != string(w) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFloatKeyJoinMatchesNestedLoop is the regression test for the
// Float index keying a Go map by float ==: -0 met +0 at some shard
// counts of the partitioned index and not others (the shard came from
// the bits), and NaN never met NaN. Keys are canonical now — every NaN
// one value, the two zeros two — as in Tuple.Key, which NestedLoopJoin
// compares.
func TestFloatKeyJoinMatchesNestedLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), negZero, 0, math.Inf(1)}
	ls := MustSchema(Field{"k", Float}, Field{"l", Int})
	rs := MustSchema(Field{"k", Float}, Field{"r", Int})
	left, right := NewTable(ls), NewTable(rs)
	for i := 0; i < 64; i++ {
		left.AppendUnchecked(Tuple{FloatValue(specials[i%len(specials)]), IntValue(int64(i))})
		right.AppendUnchecked(Tuple{FloatValue(float64(i)), IntValue(int64(i))})
	}
	for i, f := range specials {
		right.AppendUnchecked(Tuple{FloatValue(f), IntValue(int64(100 + i))})
		right.AppendUnchecked(Tuple{FloatValue(f), IntValue(int64(200 + i))})
	}
	right.AppendUnchecked(Tuple{FloatValue(math.Float64frombits(0x7ff8_0000_0000_0001)), IntValue(300)})
	for _, kind := range []JoinType{Inner, LeftOuter} {
		want, err := NestedLoopJoin(left, right, "k", "k", kind)
		if err != nil {
			t.Fatal(err)
		}
		if kind == Inner && want.Len() != 64/4*(2+2+3+3) {
			t.Fatalf("oracle joined %d rows; the fixture expects every special to match", want.Len())
		}
		got, err := HashJoin(left, right, "k", "k", kind)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("kind=%v", kind), got.Rows(), want.Rows())
	}
}

// joinFuzzCell builds a key cell of kind t from v: a small domain, so
// keys repeat; Float's includes NaN (two payloads), both zeros and both
// infinities.
func joinFuzzCell(t Type, v byte) Value {
	v %= 12
	switch t {
	case Int:
		return IntValue(int64(v) - 3)
	case Float:
		switch v {
		case 0:
			return FloatValue(math.NaN())
		case 1:
			return FloatValue(math.Float64frombits(0xfff8_0000_0000_00ff))
		case 2:
			return FloatValue(math.Copysign(0, -1))
		case 3:
			return FloatValue(0)
		case 4:
			return FloatValue(math.Inf(1))
		case 5:
			return FloatValue(math.Inf(-1))
		}
		return FloatValue(float64(v) / 2)
	case Bool:
		return BoolValue(v&1 == 1)
	}
	if v == 0 {
		return StringValue("")
	}
	return StringValue(fmt.Sprintf("k%d", v))
}

// splitRows cuts rows into parts batches of near-equal length, some of
// them empty when there are fewer rows than parts.
func splitRows(rows []Tuple, parts int) [][]Tuple {
	batches := make([][]Tuple, parts)
	for p := range batches {
		batches[p] = rows[p*len(rows)/parts : (p+1)*len(rows)/parts]
	}
	return batches
}

// FuzzJoinerMatchesReference holds the flat index to the partitioned
// index the chained one replaced (reference_test.go): random build and
// probe sides with repeated keys and mis-kinded key cells, every key
// type, Inner and LeftOuter, a reference of 1..8 shards, the build side
// delivered as 1..6 batches, probed in batches through one arena. The
// rows must be identical and in identical order. Float keys are held to
// NestedLoopJoin instead, because the reference keeps the float == bug
// TestFloatKeyJoinMatchesNestedLoop pins.
func FuzzJoinerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 1, 1, 1, 0, 2, 1, 2, 6, 1, 0, 1, 2, 9})
	f.Add([]byte{1, 1, 2, 2, 0, 0, 1, 0, 0, 2, 1, 2, 0, 3, 1, 3, 6, 0, 7, 0})
	f.Add([]byte{2, 1, 7, 1, 0, 5, 1, 5, 1, 5, 6, 5, 7, 5, 0, 0, 1, 0})
	f.Add([]byte{3, 0, 4, 4, 0, 1, 1, 1, 1, 0, 6, 1, 0, 0, 1, 1})
	f.Add([]byte{0, 1, 1, 27, 1, 0, 1, 1, 1, 1, 0, 1, 1, 2, 7, 1, 0, 2, 1, 0, 1, 9})
	f.Add([]byte{1, 0, 0, 12, 1, 2, 1, 3, 0, 2, 1, 2, 1, 0, 15, 3, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		keyType, kind, shards, batch := Type(data[0]%4), JoinType(data[1]%2), 1+int(data[2]%8), 1+int(data[3]%5)
		parts := 1 + int(data[3]/5%6) // build batches
		ls := MustSchema(Field{"k", keyType}, Field{"l", Int})
		rs := MustSchema(Field{"r", Int}, Field{"k", keyType})
		left, right := NewTable(ls), NewTable(rs)
		data = data[4:]
		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			side, v := data[i], data[i+1]
			cellType := keyType
			if side&6 == 6 {
				cellType = (keyType + 1 + Type(side>>3)%3) % 4
			}
			k := joinFuzzCell(cellType, v)
			if side&1 == 0 {
				left.AppendUnchecked(Tuple{k, IntValue(int64(i))})
			} else {
				right.AppendUnchecked(Tuple{IntValue(int64(i)), k})
			}
		}
		plan, err := PlanJoin(ls, rs, "k", "k")
		if err != nil {
			t.Fatal(err)
		}
		j := plan.Build(kind, splitRows(right.Rows(), parts)...)
		var (
			a     Arena
			got   []Tuple
			heads []int32
		)
		rows := left.Rows()
		for lo := 0; lo < len(rows); lo += batch {
			var out []Tuple
			out, heads, _, _ = j.ProbeRows(&a, heads, rows[lo:min(lo+batch, len(rows))], nil)
			got = append(got, out...)
		}
		if keyType == Float {
			want, err := NestedLoopJoin(left, right, "k", "k", kind)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "against NestedLoopJoin", got, want.Rows())
			return
		}
		ref, err := refNewJoiner(ls, right, "k", "k", kind, shards)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "against the reference", got, ref.ProbeRows(nil, rows))
	})
}

// TestFlatIndexMatchesChainedIndex holds every probe key's chain in the
// flat index — its head, then next — to the chained index it replaced
// (reference_test.go), row number for row number. Build tables are
// random over all four key types, with mis-kinded key cells, both NaN
// payloads, both zeros and repeated keys, from empty to a few hundred
// rows; the probe keys are every cell of every kind the builds draw
// from.
func TestFlatIndexMatchesChainedIndex(t *testing.T) {
	var probes []Value
	for _, k := range []Type{Int, Float, Bool, String} {
		for v := 0; v < 12; v++ {
			probes = append(probes, joinFuzzCell(k, byte(v)))
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, keyType := range []Type{Int, Float, Bool, String} {
		for _, n := range []int{0, 1, 2, 7, 64, 300} {
			rs := MustSchema(Field{"r", Int}, Field{"k", keyType})
			right := NewTable(rs)
			for i := 0; i < n; i++ {
				cellType := keyType
				if rng.IntN(5) == 0 {
					cellType = Type(rng.IntN(4))
				}
				right.AppendUnchecked(Tuple{IntValue(int64(i)), joinFuzzCell(cellType, byte(rng.IntN(12)))})
			}
			j, err := NewJoiner(MustSchema(Field{"k", keyType}), right, "k", "k", Inner)
			if err != nil {
				t.Fatal(err)
			}
			ref := newKeyIndex(keyType)
			refNext := make([]int32, n)
			ref.insert(right.Rows(), 1, refNext)
			for _, key := range probes {
				want := ref.head(Tuple{key}, 0)
				got := j.slots[j.slot(key)]
				for step := 0; ; step++ {
					if got != want {
						t.Fatalf("%s key, %d build rows: probe %v (%s): row %d of its chain is %d, want %d", keyType, n, key, key.Kind(), step, got, want)
					}
					if got < 0 {
						break
					}
					got, want = j.next[got], refNext[want]
				}
			}
		}
	}
}

// TestDroppedBytesCountRejectedRows holds droppedBytes, which counts a
// rejected row from its parts, to EncodedSize of each rejected row as
// keep saw it assembled: LeftOuter, so padded rows are rejected too,
// over build and probe cells of every kind and of widths whose length
// prefixes take one and two bytes.
func TestDroppedBytesCountRejectedRows(t *testing.T) {
	ls := MustSchema(Field{"k", Int}, Field{"l", String}, Field{"b", Bool})
	rs := MustSchema(Field{"s", String}, Field{"k", Int}, Field{"f", Float}, Field{"r", String})
	left, right := NewTable(ls), NewTable(rs)
	for i := 0; i < 60; i++ {
		left.AppendUnchecked(Tuple{IntValue(int64(i % 25)), StringValue(strings.Repeat("l", i*7)), BoolValue(i%2 == 0)})
		right.AppendUnchecked(Tuple{StringValue(strings.Repeat("s", i*5)), IntValue(int64(i % 20)), FloatValue(float64(i)), StringValue(strings.Repeat("r", 140-i))})
	}
	j, err := NewJoiner(ls, right, "k", "k", LeftOuter)
	if err != nil {
		t.Fatal(err)
	}
	var (
		want    int64
		judged  int
		a       Arena
		heads   []int32
		dropped int
		bytes   int64
	)
	keep := func(row Tuple) bool {
		judged++
		if judged%3 == 0 {
			return true
		}
		want += EncodedSize(row)
		return false
	}
	rows := left.Rows()
	for lo := 0; lo < len(rows); lo += 8 {
		var n int
		var b int64
		_, heads, n, b = j.ProbeRows(&a, heads, rows[lo:min(lo+8, len(rows))], keep)
		dropped, bytes = dropped+n, bytes+b
	}
	if dropped == 0 || dropped == judged || bytes != want {
		t.Fatalf("%d of %d rows dropped in %d B, want some of them in %d B", dropped, judged, bytes, want)
	}
}
