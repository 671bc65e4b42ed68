package relation

// Arena carves the rows one producer hands out over its whole run: an
// operator instance, a router, a Probe call. It owns a tuple chunk and a
// cell chunk. A batch is built at the tail of the tuple chunk and handed
// out by Batch as a three-index slice, and every row Row carves is a
// three-index slice of the cell chunk, so appending to a batch or to a
// row reallocates instead of reaching a neighbour. Nothing handed out is
// written again and nothing is reused: rows travel downstream and into
// sink tables, so a chunk lives as long as any row carved from it.
//
// Sizing is per run, not per batch. A chunk is replaced, never grown in
// place, by one of max(need, what the instance has produced so far / 8):
// the first chunk is exactly the first batch's need, so an instance that
// sees one or two batches wastes nothing, and one that sees many keeps
// the empty tail of its last chunk under an eighth of its output. A batch
// that outgrows its tuple chunk moves to a chunk at least twice its
// size, so a batch of n rows appended one at a time is copied O(log n)
// times, not O(n).
//
// The zero Arena is ready to use. An Arena belongs to one goroutine.
type Arena struct {
	rows  []Tuple // rows[:mark] are handed out; rows[mark:] is the open batch
	cells []Value // cells[:len] belong to carved rows; the rest is zero
	mark  int

	madeRows  int // tuples added over the arena's life
	madeCells int // cells carved over the arena's life

	// Joiner.ProbeRows' workspace when it judges rows against a
	// predicate: the row a candidate is assembled in, and each
	// candidate's verdict. Neither is handed out.
	scratch Tuple
	kept    []bool
}

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
	if cap(a.rows)-len(a.rows) < rows {
		open := len(a.rows) - a.mark
		grown := make([]Tuple, open, max(open+rows, 2*open, a.madeRows/8))
		copy(grown, a.rows[a.mark:])
		a.rows, a.mark = grown, 0
	}
	if cap(a.cells)-len(a.cells) < cells {
		a.cells = make([]Value, 0, max(cells, a.madeCells/8))
	}
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
