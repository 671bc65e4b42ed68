package paged

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// Cap returns how many records the store's pages have room for.
func (s *Store[T]) Cap() int {
	n := 0
	for _, pg := range s.pages {
		n += cap(pg)
	}
	return n
}

// A store reads back what was appended, in order, by At and by All,
// and once it passes its first page its pages leave less than one page
// empty.
func TestStoreAppendsInOrder(t *testing.T) {
	for _, page := range []int{1, 3, 64} {
		s := New[int](page)
		for n := range 5*page + 2 {
			s.Append(n)
			if s.Len() != n+1 {
				t.Fatalf("page %d: Len %d after %d appends", page, s.Len(), n+1)
			}
			if s.Len() > page && s.Cap()-s.Len() >= page {
				t.Fatalf("page %d: %d records in room for %d", page, s.Len(), s.Cap())
			}
		}
		var got []int
		for i, x := range s.All() {
			if i != len(got) || *s.At(i) != *x {
				t.Fatalf("page %d: All yields record %d at index %d", page, *x, i)
			}
			got = append(got, *x)
		}
		for i, x := range got {
			if x != i {
				t.Fatalf("page %d: record %d holds %d", page, i, x)
			}
		}
	}
}

// No record moves once its page is full: an address taken then still
// addresses the same record after the store has grown by many pages.
func TestStoreNeverCopiesAFullPage(t *testing.T) {
	const page = 16
	s := New[int](page)
	var addrs []*int
	for n := range 40 * page {
		s.Append(n)
		if n%page == page-1 {
			addrs = append(addrs, s.At(n))
		}
	}
	for k, p := range addrs {
		i := k*page + page - 1
		if s.At(i) != p || *p != i {
			t.Fatalf("record %d moved, or holds %d", i, *p)
		}
	}
}

// Slot makes a ring: it keeps what a slice grown to size and then
// overwritten at n % size keeps, with size a multiple of the page and
// not.
func TestSlotIsARing(t *testing.T) {
	for _, c := range []struct{ page, size int }{{4, 16}, {5, 16}, {16, 16}, {32, 16}} {
		s := New[int64](c.page)
		var ref []int64
		for n := range int64(5*c.size + 3) {
			*s.Slot(n, c.size) = n
			if len(ref) < c.size {
				ref = append(ref, n)
			} else {
				ref[n%int64(c.size)] = n
			}
			got := make([]int64, 0, s.Len())
			for _, x := range s.All() {
				got = append(got, *x)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("page %d, ring %d, after %d puts: %v, want %v", c.page, c.size, n+1, got, ref)
			}
		}
	}
}

// A store that stays within its first page allocates what a slice
// grown by append does, and one page table header more; past the
// first page its last growth is to exactly one page. A race build
// skips the byte comparison: its slices.Grow allocates the make it
// appends.
func TestFirstPageGrowsLikeAppend(t *testing.T) {
	bi, ok := debug.ReadBuildInfo()
	race := ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
	type rec [64]byte
	const page = 1024
	bytesOf := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, n := range []int{1, 7, 100, 513, 900, page} {
		var s Store[rec]
		var sl []rec
		store := bytesOf(func() {
			s = New[rec](page)
			for range n {
				s.Append(rec{})
			}
		})
		slice := bytesOf(func() {
			for range n {
				sl = append(sl, rec{})
			}
		})
		if !race && store > slice+24 {
			t.Errorf("%d records: the store allocated %d bytes, a slice %d", n, store, slice)
		}
		if s.Cap() > page {
			t.Errorf("%d records: the first page has room for %d, more than a page of %d", n, s.Cap(), page)
		}
		runtime.KeepAlive(sl)
	}
}

// Grow presizes the first page in one growth, as slices.Grow does, up
// to exactly one page; once the first page has room for a page it
// allocates nothing, and a store grown one record at a time through it
// is not regrown record by record.
func TestGrowPresizesTheFirstPage(t *testing.T) {
	const page = 64
	s := New[int](page)
	s.Grow(10)
	if s.Cap() != cap(slices.Grow([]int(nil), 10)) {
		t.Fatalf("Grow(10) made room for %d, slices.Grow for %d", s.Cap(), cap(slices.Grow([]int(nil), 10)))
	}
	s.Grow(100)
	if s.Cap() != page {
		t.Fatalf("Grow past a page made room for %d, want %d", s.Cap(), page)
	}
	for n := range 3 * page {
		s.Append(n)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Grow(5 * page) }); allocs != 0 {
		t.Fatalf("Grow on a store past its first page allocated %v times", allocs)
	}
	grown := 0
	r := New[int](1024)
	for n := range 1000 {
		c := r.Cap()
		r.Grow(1)
		r.Append(n)
		if r.Cap() != c {
			grown++
		}
	}
	if grown > 20 {
		t.Fatalf("1000 records grown one at a time regrew the first page %d times", grown)
	}
}
