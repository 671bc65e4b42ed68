// Package paged is the append-only storage of retained telemetry: a
// sequence of records held in fixed-size pages, each allocated once,
// filled in place and never copied once it is full. A store grown one
// record at a time therefore allocates its records plus under three
// pages (under one of empty tail, under two of first-page growth),
// where a slice grown by append allocates about five times what it
// ends at (Go grows a large slice by 1.25x) and keeps up to a quarter
// of its capacity empty.
package paged

import (
	"iter"
	"slices"
)

// Store is an append-only sequence of T in pages of a fixed number of
// records. Only the first page grows: as a slice grown by append or
// slices.Grow would, until that would pass a page, and then to exactly
// one page. So a store smaller than one page holds what a slice would,
// and every later page is allocated whole. A Store is made by New and
// is not safe for concurrent use.
//
// A ring is the same type: Slot appends while the ring fills and then
// addresses record n % size, overwriting the oldest.
type Store[T any] struct {
	page  int   // records per page
	pages [][]T // every page but the last is full
}

// New returns an empty store of pages of page records.
func New[T any](page int) Store[T] {
	return Store[T]{page: page}
}

// Len returns how many records the store holds.
func (s *Store[T]) Len() int {
	if len(s.pages) == 0 {
		return 0
	}
	return (len(s.pages)-1)*s.page + len(s.pages[len(s.pages)-1])
}

// Grow makes room on the first page for n more records in one growth,
// as slices.Grow would, so a store filled in bulk is not regrown record
// by record; a growth that would pass a page, or double past one, is
// to exactly one page. Once the first page has room for a page it does
// nothing: later pages are allocated whole.
func (s *Store[T]) Grow(n int) {
	if len(s.pages) == 0 {
		s.pages = append(s.pages, nil)
	}
	pg := &s.pages[0]
	switch {
	case cap(*pg) >= s.page || len(*pg)+n <= cap(*pg):
	case len(*pg)+n >= s.page || 2*cap(*pg) > s.page:
		*pg = append(make([]T, 0, s.page), *pg...)
	default:
		*pg = slices.Grow(*pg, n)
	}
}

// Append stores x as record Len().
func (s *Store[T]) Append(x T) {
	s.Grow(1)
	last := &s.pages[len(s.pages)-1]
	if len(*last) == s.page {
		s.pages = append(s.pages, make([]T, 0, s.page))
		last = &s.pages[len(s.pages)-1]
	}
	*last = append(*last, x)
}

// At returns record i, 0 <= i < Len(). The pointer stays valid, and
// keeps addressing record i, for the store's life once i's page is
// full.
func (s *Store[T]) At(i int) *T {
	return &s.pages[i/s.page][i%s.page]
}

// Slot returns where the n-th record put into a ring of size records
// goes: a new zero record while the ring fills (n == Len() < size),
// then record n % size, which holds the oldest record until the caller
// overwrites it.
func (s *Store[T]) Slot(n int64, size int) *T {
	if i := int(n % int64(size)); i < s.Len() {
		return s.At(i)
	}
	var zero T
	s.Append(zero)
	return s.At(s.Len() - 1)
}

// All yields each record's index and address, in order.
func (s *Store[T]) All() iter.Seq2[int, *T] {
	return func(yield func(int, *T) bool) {
		for p, pg := range s.pages {
			for j := range pg {
				if !yield(p*s.page+j, &pg[j]) {
					return
				}
			}
		}
	}
}
