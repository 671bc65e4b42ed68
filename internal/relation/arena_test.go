package relation

import "testing"

// TestArenaChunkSizing pins the sizing rules: the first chunk is exactly
// the first need, a later one is max(need, an eighth of what the arena
// has produced), and a batch that outgrows its tuple chunk moves to one
// at least twice its size, keeping its rows in order.
func TestArenaChunkSizing(t *testing.T) {
	var a Arena
	a.Reserve(8, 24)
	if cap(a.rows) != 8 || cap(a.cells) != 24 {
		t.Fatalf("first chunks hold %d tuples and %d cells, want exactly 8 and 24", cap(a.rows), cap(a.cells))
	}
	for i := 0; i < 8; i++ {
		a.Row(3)[0] = IntValue(int64(i))
	}
	first := a.Batch()
	a.Reserve(8, 24)
	if cap(a.rows) != 8 || cap(a.cells) != 24 {
		t.Fatalf("second chunks hold %d tuples and %d cells, want exactly the second batch's 8 and 24", cap(a.rows), cap(a.cells))
	}
	for i := 0; i < 792; i++ {
		a.Row(3)
	}
	a.Batch()
	if a.madeRows != 800 || a.madeCells != 2400 {
		t.Fatalf("arena counted %d rows and %d cells, want 800 and 2400", a.madeRows, a.madeCells)
	}
	rows, cells := cap(a.rows)-len(a.rows)+1, cap(a.cells)-len(a.cells)+1
	a.Reserve(rows, cells)
	if cap(a.rows) != max(rows, 100) || cap(a.cells) != max(cells, 300) {
		t.Fatalf("chunks after 800 rows of 3 cells hold %d tuples and %d cells, want %d and %d", cap(a.rows), cap(a.cells), max(rows, 100), max(cells, 300))
	}

	var b Arena
	for i := 0; i < 5; i++ {
		b.Append(first[i])
	}
	if cap(b.rows) != 8 {
		t.Fatalf("a batch of 5 appended one at a time sits in a chunk of %d, want 8 (1, 2, 4, 8)", cap(b.rows))
	}
	b.Reserve(20, 0)
	if got := cap(b.rows); got != 25 {
		t.Fatalf("a 5-row batch reserving 20 more moved to a chunk of %d, want 25", got)
	}
	batch := b.Batch()
	for i, r := range batch {
		if r[0].Int() != int64(i) {
			t.Fatalf("moved batch row %d = %v, want %d", i, r, i)
		}
	}
	if b.Batch() != nil {
		t.Fatal("an empty batch is not nil")
	}
}
