package kge

import "slices"

// Top selects the k least of the items offered to it under cmp, holding
// no more than k at any time, and counts every item it was offered. Its
// selection is what sorting every offered item by cmp and keeping the
// first k would give, as long as items that cmp calls equal are equal
// in every field the caller reads: a ranking therefore breaks ties down
// to a unique key. A Top is not safe for concurrent use.
type Top[T any] struct {
	k    int
	cmp  func(a, b T) int
	heap []T // the kept items, a max-heap under cmp: heap[0] is the worst
	seen int
}

// NewTop returns a selector of the k least items under cmp (none when k
// is not positive). It allocates room for k items at once, so a caller
// bounds k by the most items it can offer.
func NewTop[T any](k int, cmp func(a, b T) int) *Top[T] {
	k = max(k, 0)
	return &Top[T]{k: k, cmp: cmp, heap: make([]T, 0, k)}
}

// Offer considers x: it is kept while fewer than k items are, or when
// it is less than the worst item kept, which it then replaces.
func (t *Top[T]) Offer(x T) {
	t.seen++
	h := t.heap
	if len(h) < t.k {
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if t.cmp(h[p], h[i]) >= 0 {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.heap = h
		return
	}
	if len(h) == 0 || t.cmp(x, h[0]) >= 0 {
		return
	}
	h[0] = x
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && t.cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if t.cmp(h[i], h[c]) >= 0 {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Seen returns how many items have been offered.
func (t *Top[T]) Seen() int { return t.seen }

// Sorted returns the kept items, least first, in a new slice: the first
// min(k, Seen()) items of every offered item sorted by cmp. The
// selection may go on after it.
func (t *Top[T]) Sorted() []T {
	s := slices.Clone(t.heap)
	slices.SortFunc(s, t.cmp)
	return s
}
