package objstore

import (
	"strings"
	"testing"

	"repro/internal/cost"
)

func newStore(t *testing.T, capacity int64) *Store {
	t.Helper()
	s, err := New(nil, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("expected error for zero capacity")
	}
	bad := cost.Default()
	bad.SpillBytesPerSec = 0
	if _, err := New(bad, 100); err == nil {
		t.Fatal("expected error for invalid model")
	}
}

func TestPutGet(t *testing.T) {
	s := newStore(t, 1000)
	secs, err := s.Put("a", 100)
	if err != nil || secs <= 0 {
		t.Fatalf("put: %v %v", secs, err)
	}
	if !s.Contains("a") || s.Spilled("a") || s.Used() != 100 || s.Size("a") != 100 {
		t.Fatal("store state wrong after put")
	}
	gsecs, err := s.Get("a")
	if err != nil || gsecs <= 0 {
		t.Fatalf("get: %v %v", gsecs, err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Spills != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutErrors(t *testing.T) {
	s := newStore(t, 1000)
	if _, err := s.Put("a", 0); err == nil {
		t.Fatal("expected error for zero size")
	}
	if _, err := s.Put("a", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("expected error for missing get")
	}
	if _, err := s.AccessSeconds("missing"); err == nil {
		t.Fatal("expected error for missing access")
	}
}

func TestLRUSpillAndRestore(t *testing.T) {
	s := newStore(t, 250)
	s.Put("a", 100)
	s.Put("b", 100)
	// Touch a so that b is the LRU victim.
	s.Get("a")
	if _, err := s.Put("c", 100); err != nil {
		t.Fatal(err)
	}
	if !s.Spilled("b") {
		t.Fatal("b should have spilled")
	}
	if s.Spilled("a") || s.Spilled("c") {
		t.Fatal("wrong victim spilled")
	}
	if s.Stats().Spills != 1 {
		t.Fatalf("spills = %d", s.Stats().Spills)
	}
	// Restoring b evicts something else.
	if _, err := s.Get("b"); err != nil {
		t.Fatal(err)
	}
	if s.Spilled("b") {
		t.Fatal("b should be restored")
	}
	if s.Stats().Restores != 1 {
		t.Fatalf("restores = %d", s.Stats().Restores)
	}
	if s.Used() > s.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", s.Used(), s.Capacity())
	}
}

func TestSpilledAccessSlower(t *testing.T) {
	s := newStore(t, 250)
	s.Put("a", 200)
	memCost, _ := s.AccessSeconds("a")
	s.Put("b", 200) // evicts a
	if !s.Spilled("a") {
		t.Fatal("a should have spilled")
	}
	diskCost, _ := s.AccessSeconds("a")
	if diskCost <= memCost {
		t.Fatalf("spilled access (%v) should cost more than memory (%v)", diskCost, memCost)
	}
}

func TestOversizedObjectGoesToDisk(t *testing.T) {
	s := newStore(t, 100)
	secs, err := s.Put("huge", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Spilled("huge") {
		t.Fatal("oversized object should live on the spill path")
	}
	if secs <= 0 {
		t.Fatal("oversized put should cost time")
	}
	// Get serves from disk without restoring.
	if _, err := s.Get("huge"); err != nil {
		t.Fatal(err)
	}
	if !s.Spilled("huge") {
		t.Fatal("oversized object cannot be restored")
	}
	if s.Used() != 0 {
		t.Fatalf("used = %d", s.Used())
	}
}

func TestPinPreventsEviction(t *testing.T) {
	s := newStore(t, 250)
	s.Put("model", 200)
	if err := s.Pin("model"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("data", 200); err != nil {
		t.Fatal(err)
	}
	if s.Spilled("model") {
		t.Fatal("pinned object evicted")
	}
	if !s.Spilled("data") {
		t.Fatal("new object should have gone to disk when pin blocks eviction")
	}
	if err := s.Unpin("model"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin("missing"); err == nil {
		t.Fatal("expected error pinning missing object")
	}
	if err := s.Unpin("missing"); err == nil {
		t.Fatal("expected error unpinning missing object")
	}
}

// TestPutReplaces holds a re-put to a second ray.put: the old copy's
// memory is freed or its spill dropped, and the new copy is placed and
// charged afresh.
func TestPutReplaces(t *testing.T) {
	s := newStore(t, 100)
	first, err := s.Put("a", 50)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Put("a", 50)
	if err != nil {
		t.Fatal(err)
	}
	if again != first || s.Used() != 50 || s.Size("a") != 50 || s.Stats().Puts != 2 {
		t.Fatalf("re-put: %v s (first %v s), used %d, size %d, %d puts", again, first, s.Used(), s.Size("a"), s.Stats().Puts)
	}
	// A spilled copy is dropped; a smaller new copy lands in memory.
	if _, err := s.Put("big", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("big", 40); err != nil {
		t.Fatal(err)
	}
	if s.Spilled("big") || s.Used() != 90 || s.Size("big") != 40 {
		t.Fatalf("re-put of a spilled object: spilled %v, used %d, size %d", s.Spilled("big"), s.Used(), s.Size("big"))
	}
	if _, err := s.Put("a", 0); err == nil || s.Size("a") != 50 {
		t.Fatal("a re-put of size 0 must fail and leave the object")
	}
}

// TestPutPinnedRefused: a pinned object is not replaced.
func TestPutPinnedRefused(t *testing.T) {
	s := newStore(t, 100)
	if _, err := s.Put("a", 70); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("a", 10); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("re-put of a pinned object: %v, want a pinned error", err)
	}
	if s.Size("a") != 70 || s.Used() != 70 {
		t.Fatalf("refused re-put changed the store: size %d, used %d", s.Size("a"), s.Used())
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t, 100)
	s.Put("a", 50)
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if s.Contains("a") || s.Used() != 0 {
		t.Fatal("delete did not remove object")
	}
	if err := s.Delete("a"); err == nil {
		t.Fatal("expected error deleting missing object")
	}
	// Deleting a spilled object works too.
	s.Put("big", 1000)
	if err := s.Delete("big"); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantUsedNeverExceedsCapacity(t *testing.T) {
	s := newStore(t, 500)
	sizes := []int64{120, 300, 80, 450, 60, 200, 10, 490}
	for i, sz := range sizes {
		id := ID(rune('a' + i))
		if _, err := s.Put(id, sz); err != nil {
			t.Fatal(err)
		}
		if s.Used() > s.Capacity() {
			t.Fatalf("after put %d: used %d > capacity %d", i, s.Used(), s.Capacity())
		}
	}
	for i := range sizes {
		id := ID(rune('a' + i))
		if _, err := s.Get(id); err != nil {
			t.Fatal(err)
		}
		if s.Used() > s.Capacity() {
			t.Fatalf("after get %d: used %d > capacity %d", i, s.Used(), s.Capacity())
		}
	}
}
