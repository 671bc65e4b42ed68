package relation

import "sync"

// Arena carves the rows one producer hands out over its whole run: an
// operator instance, a worker's hash-edge splitter, a lineage capture, a
// Probe call. It owns a tuple chunk and a cell chunk. A batch is built
// at the tail of the tuple chunk and handed out by Batch as a
// three-index slice, and every row Row carves is a three-index slice of
// the cell chunk, so appending to a batch or to a row reallocates
// instead of reaching a neighbour. Nothing handed out is written again
// and nothing is reused: rows travel downstream and into sink tables, so
// a chunk lives as long as any row carved from it.
//
// Sizing is per run, not per batch. A chunk is replaced, never grown in
// place. An arena of its own replaces it by one of max(need, what the
// arena has produced so far / 8): the first chunk is exactly the first
// batch's need, so an arena that sees one or two batches wastes nothing,
// and one that sees many keeps the empty tail of its last chunk under an
// eighth of its output. An arena drawn from an ArenaSource carves
// exactly its need from the source instead, and the source applies the
// eighth rule to what all its arenas have carved. The dataflow executor
// keeps one source per workflow run, so every worker of every operator,
// and the lineage capture, share one empty tail: an operator instance
// that sees one batch costs the run a piece of a chunk, not a chunk.
// Either way, a batch that outgrows its tuple chunk moves to a chunk at
// least twice its size, so a batch of n rows appended one at a time is
// copied O(log n) times, not O(n).
//
// The zero Arena is ready to use and has no source. An Arena belongs to
// one goroutine.
type Arena struct {
	src   *ArenaSource // nil: the arena sizes and allocates its own chunks
	rows  []Tuple      // rows[:mark] are handed out; rows[mark:] is the open batch
	cells []Value      // cells[:len] belong to carved rows; the rest is zero
	mark  int

	madeRows  int // tuples added over the arena's life
	madeCells int // cells carved over the arena's life

	// Joiner.ProbeRows' workspace when it judges rows against a
	// predicate: the row a candidate is assembled in, and each
	// candidate's verdict. Neither is handed out.
	scratch Tuple
	kept    []bool
}

// ArenaSource is the storage every arena of one owner carves its chunks
// from; the dataflow executor's owner is a workflow run. It keeps one
// tuple chunk and one cell chunk, each replaced, when a carve does not
// fit, by one of max(need, what the source has carved so far / 8). The
// pieces it hands out are three-index slices that never overlap, so each
// arena fills its own without a lock; only carving takes the source's.
// The zero ArenaSource is ready to use, and it is safe for concurrent
// use.
type ArenaSource struct {
	mu        sync.Mutex
	rows      []Tuple // rows[:len] are carved; the rest is free
	cells     []Value // likewise
	madeRows  int     // tuples carved over the source's life
	madeCells int     // cells carved over the source's life
}

// Arena returns an empty arena that carves its chunks from s.
func (s *ArenaSource) Arena() Arena { return Arena{src: s} }

// carve hands out an empty tuple chunk of capacity rows and an empty
// cell chunk of capacity cells, either nil when its count is 0.
func (s *ArenaSource) carve(rows, cells int) ([]Tuple, []Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return take(&s.rows, &s.madeRows, rows), take(&s.cells, &s.madeCells, cells)
}

// take cuts n elements off the free tail of *chunk, as an empty
// three-index slice, and counts them in *made. A chunk they do not fit
// is replaced first.
func take[T any](chunk *[]T, made *int, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*chunk)-len(*chunk) < n {
		*chunk = newChunk[T](n, *made)
	}
	i := len(*chunk)
	*chunk = (*chunk)[:i+n]
	*made += n
	return (*chunk)[i : i : i+n]
}

// newChunk is the one sizing rule: room for max(need, made/8) elements,
// where made is what the chunk's owner has produced so far.
func newChunk[T any](need, made int) []T { return make([]T, 0, max(need, made/8)) }

// Fits reports whether rows more tuples and cells more cells fit in the
// current chunks without allocating.
func (a *Arena) Fits(rows, cells int) bool {
	return cap(a.rows)-len(a.rows) >= rows && cap(a.cells)-len(a.cells) >= cells
}

// Reserve makes room for rows more tuples in the open batch and cells
// more cells, so that many Append and Row calls do not allocate. A
// caller that knows its output sizes it here; the chunks it gets follow
// the sizing rules above.
func (a *Arena) Reserve(rows, cells int) {
	rowNeed, cellNeed := 0, 0
	if cap(a.rows)-len(a.rows) < rows {
		open := len(a.rows) - a.mark
		rowNeed = max(open+rows, 2*open)
	}
	if cap(a.cells)-len(a.cells) < cells {
		cellNeed = cells
	}
	if rowNeed == 0 && cellNeed == 0 {
		return
	}
	var tuples []Tuple
	var vals []Value
	if a.src != nil {
		tuples, vals = a.src.carve(rowNeed, cellNeed)
	} else {
		if rowNeed > 0 {
			tuples = newChunk[Tuple](rowNeed, a.madeRows)
		}
		if cellNeed > 0 {
			vals = newChunk[Value](cellNeed, a.madeCells)
		}
	}
	if rowNeed > 0 {
		a.rows, a.mark = append(tuples, a.rows[a.mark:]...), 0
	}
	if cellNeed > 0 {
		a.cells = vals
	}
}

// Slots adds n tuples to the open batch and returns them, zero, for the
// caller to fill in any order before the batch is handed out.
func (a *Arena) Slots(n int) []Tuple {
	if !a.Fits(n, 0) {
		a.Reserve(n, 0)
	}
	i := len(a.rows)
	a.rows = a.rows[:i+n]
	a.madeRows += n
	return a.rows[i : i+n : i+n]
}

// Append adds t to the open batch.
func (a *Arena) Append(t Tuple) {
	if len(a.rows) == cap(a.rows) {
		a.Reserve(1, 0)
	}
	a.rows = append(a.rows, t)
	a.madeRows++
}

// Row carves a tuple of n zero cells, adds it to the open batch and
// returns it for the caller to fill before the batch is handed out.
func (a *Arena) Row(n int) Tuple {
	if !a.Fits(1, n) {
		a.Reserve(1, n)
	}
	start := len(a.cells)
	a.cells = a.cells[:start+n]
	row := a.cells[start : start+n : start+n]
	a.rows = append(a.rows, row)
	a.madeRows++
	a.madeCells += n
	return row
}

// Batch closes the open batch and returns it, or nil if it is empty.
// The next tuple added starts a new batch.
func (a *Arena) Batch() []Tuple {
	n := len(a.rows)
	b := a.rows[a.mark:n:n]
	a.mark = n
	if len(b) == 0 {
		return nil
	}
	return b
}
