package objstore

import (
	"fmt"
	"sync"
	"testing"
)

// Concurrent spill writers share one store on the sharded tier: every
// worker of a grace join writes its partition files at once. The store
// must keep its books (residency, usage, spill totals) consistent
// under that contention.
func TestConcurrentSpillWriters(t *testing.T) {
	s, err := New(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 16
	const size = 64 << 10 // 8 MiB total demand against a 1 MiB budget
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := ID(fmt.Sprintf("part-%d-%d", w, i))
				if _, err := s.Put(id, size); err != nil {
					t.Errorf("put %s: %v", id, err)
				}
			}
		}(w)
	}
	wg.Wait()

	if used := s.Used(); used > s.Capacity() {
		t.Fatalf("resident bytes %d exceed capacity %d", used, s.Capacity())
	}
	st := s.Stats()
	if st.Puts != writers*perWriter {
		t.Fatalf("puts = %d, want %d", st.Puts, writers*perWriter)
	}
	if st.SpilledBytes == 0 {
		t.Fatal("8 MiB of puts into a 1 MiB store spilled nothing")
	}
	var resident int64
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := ID(fmt.Sprintf("part-%d-%d", w, i))
			if !s.Contains(id) {
				t.Fatalf("object %s vanished", id)
			}
			if !s.Spilled(id) {
				resident += s.Size(id)
			}
		}
	}
	if resident != s.Used() {
		t.Fatalf("resident object bytes %d != Used() %d", resident, s.Used())
	}
}

// Pinned artifacts must survive a storm of racing puts: eviction may
// never choose a pinned resident, no matter how much concurrent demand
// lands on the store.
func TestPinnedEvictionRacingPuts(t *testing.T) {
	s, err := New(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pinned := []ID{"model-a", "model-b"}
	for _, id := range pinned {
		if _, err := s.Put(id, 256<<10); err != nil {
			t.Fatal(err)
		}
		if err := s.Pin(id); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				id := ID(fmt.Sprintf("spill-%d-%d", w, i))
				if _, err := s.Put(id, 128<<10); err != nil {
					t.Errorf("put %s: %v", id, err)
				}
				if _, err := s.Get(id); err != nil {
					t.Errorf("get %s: %v", id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, id := range pinned {
		if s.Spilled(id) {
			t.Fatalf("pinned object %s was evicted to the spill path", id)
		}
	}
	if used := s.Used(); used > s.Capacity() {
		t.Fatalf("resident bytes %d exceed capacity %d", used, s.Capacity())
	}
}
