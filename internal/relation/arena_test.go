package relation

import (
	"sync"
	"testing"
)

// TestArenaChunkSizing pins the sizing rules: the first chunk is exactly
// the first need, a later one is max(need, an eighth of what the arena
// has produced), and a batch that outgrows its tuple chunk moves to one
// at least twice its size, keeping its rows in order. Slots join the
// open batch after the rows already in it.
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
	slots := b.Slots(3)
	if len(slots) != 3 || cap(slots) != 3 || slots[0] != nil {
		t.Fatalf("Slots(3) gave %d slots of capacity %d, first %v; want 3 of 3, zero", len(slots), cap(slots), slots[0])
	}
	for i := 2; i >= 0; i-- { // any order
		slots[i] = first[5+i]
	}
	batch := b.Batch()
	if len(batch) != 8 {
		t.Fatalf("batch has %d rows, want 5 appended and 3 slots", len(batch))
	}
	for i, r := range batch {
		if r[0].Int() != int64(i) {
			t.Fatalf("moved batch row %d = %v, want %d", i, r, i)
		}
	}
	if b.Batch() != nil {
		t.Fatal("an empty batch is not nil")
	}
}

// An arena drawn from a source carves exactly what it reserves, and the
// source replaces its chunks by max(need, an eighth of what all its
// arenas have carved), so two arenas of one source fill one chunk.
func TestArenaSourceChunkSizing(t *testing.T) {
	var src ArenaSource
	a, b := src.Arena(), src.Arena()
	a.Reserve(8, 24)
	if cap(a.rows) != 8 || cap(a.cells) != 24 || cap(src.rows) != 8 || cap(src.cells) != 24 {
		t.Fatalf("first carve: arena %d/%d, source %d/%d, want exactly 8 tuples and 24 cells in both",
			cap(a.rows), cap(a.cells), cap(src.rows), cap(src.cells))
	}
	for i := 0; i < 8; i++ {
		a.Row(3)
	}
	a.Batch()
	a.Reserve(792, 3*792)
	if cap(a.rows) != 792 || cap(a.cells) != 3*792 {
		t.Fatalf("second carve: arena %d/%d, want exactly 792 tuples and 2376 cells", cap(a.rows), cap(a.cells))
	}
	for i := 0; i < 792; i++ {
		a.Row(3)
	}
	a.Batch()
	if src.madeRows != 800 || src.madeCells != 2400 {
		t.Fatalf("source counted %d tuples and %d cells carved, want 800 and 2400", src.madeRows, src.madeCells)
	}
	rows, cells := cap(src.rows)-len(src.rows)+1, cap(src.cells)-len(src.cells)+1
	b.Reserve(rows, cells)
	if cap(b.rows) != rows || cap(b.cells) != cells {
		t.Fatalf("second arena got %d tuples and %d cells, want exactly its %d and %d", cap(b.rows), cap(b.cells), rows, cells)
	}
	if cap(src.rows) != max(rows, 100) || cap(src.cells) != max(cells, 300) {
		t.Fatalf("source's chunks after 800 tuples of 3 cells hold %d and %d, want %d and %d", cap(src.rows), cap(src.cells), max(rows, 100), max(cells, 300))
	}
	b.Reserve(0, 10)
	b.Reserve(0, 10)
	if len(src.cells) != cells+10 {
		t.Fatalf("a second small carve did not share the source's cell chunk: %d of it used, want %d", len(src.cells), cells+10)
	}
}

// Eight goroutines, each with its own arena of one source, carve and
// fill rows of several widths in batches of several sizes; afterwards
// every row still reads back what its owner wrote. Under -race this
// also holds the carving lock to what it guards.
func TestArenaSourceConcurrentArenas(t *testing.T) {
	const workers, batches = 8, 200
	var src ArenaSource
	out := make([][][]Tuple, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := src.Arena()
			for b := 0; b < batches; b++ {
				n, width := 1+(w+b)%7, 1+b%4
				if b%3 == 0 {
					a.Reserve(n, n*width)
				}
				for i := 0; i < n; i++ {
					row := a.Row(width)
					for c := range row {
						row[c] = IntValue(int64(w<<24 | b<<8 | i<<4 | c))
					}
				}
				out[w] = append(out[w], a.Batch())
			}
		}(w)
	}
	wg.Wait()
	for w := range out {
		for b, batch := range out[w] {
			if n := 1 + (w+b)%7; len(batch) != n {
				t.Fatalf("worker %d, batch %d: %d rows, want %d", w, b, len(batch), n)
			}
			for i, row := range batch {
				if len(row) != 1+b%4 {
					t.Fatalf("worker %d, batch %d, row %d: %d cells, want %d", w, b, i, len(row), 1+b%4)
				}
				for c, v := range row {
					if want := int64(w<<24 | b<<8 | i<<4 | c); v.Int() != want {
						t.Fatalf("worker %d, batch %d, row %d, cell %d = %d, want %d", w, b, i, c, v.Int(), want)
					}
				}
			}
		}
	}
}
