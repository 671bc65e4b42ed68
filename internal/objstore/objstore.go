// Package objstore simulates Ray's shared-memory object store
// ("plasma"). Drivers put large objects — datasets, models — into the
// store; tasks fetch them before running. The store has a memory
// budget; overflow evicts unpinned objects to a disk spill path whose
// much lower throughput is the mechanism behind the script paradigm's
// GOTTA slowdown in the reproduced paper (the 1.59 GB model is fetched
// by every worker).
package objstore

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/cost"
)

// ID names an object in the store.
type ID string

// Stats aggregates store activity.
type Stats struct {
	Puts       int
	Gets       int
	Spills     int
	Restores   int
	PutSeconds float64
	GetSeconds float64
	// SpilledBytes totals bytes written to the disk spill path, whether
	// by LRU eviction or by oversized puts landing there directly — the
	// number the scale experiment's spill curves report.
	SpilledBytes int64
	// Reconstructions counts objects rebuilt from lineage after node
	// faults; ReconstructedBytes and ReconstructSeconds total their
	// size and simulated cost.
	Reconstructions    int
	ReconstructedBytes int64
	ReconstructSeconds float64
}

type object struct {
	id      ID
	size    int64
	pinned  bool
	spilled bool
	lruElem *list.Element // nil while spilled
}

// Store is a simulated object store with a memory budget and an LRU
// spill policy. All methods are goroutine-safe: concurrent spill
// writers from sharded executions share one store.
type Store struct {
	mu       sync.Mutex
	model    *cost.Model
	capacity int64
	used     int64
	objects  map[ID]*object
	lru      *list.List // front = most recently used; values are *object
	stats    Stats
}

// New creates a store with the given memory capacity in bytes. A nil
// model uses cost.Default().
func New(model *cost.Model, capacity int64) (*Store, error) {
	if model == nil {
		model = cost.Default()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("objstore: capacity must be positive, got %d", capacity)
	}
	return &Store{
		model:    model,
		capacity: capacity,
		objects:  make(map[ID]*object),
		lru:      list.New(),
	}, nil
}

// Stats returns a copy of the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Size returns an object's size, or 0 if absent.
func (s *Store) Size(id ID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.objects[id]; ok {
		return o.size
	}
	return 0
}

// evictFor spills unpinned LRU objects until need bytes fit, returning
// the simulated seconds spent spilling. It reports whether it
// succeeded. When the request is unsatisfiable — pinned residents alone
// leave less than need bytes of reclaimable headroom — it fails
// up front without spilling anything, so an oversized put does not
// pointlessly flush every unpinned bystander to disk on its way to the
// spill path. The caller must hold s.mu.
func (s *Store) evictFor(need int64) (float64, bool) {
	var pinned int64
	for e := s.lru.Front(); e != nil; e = e.Next() {
		if o := e.Value.(*object); o.pinned {
			pinned += o.size
		}
	}
	if pinned+need > s.capacity {
		return 0, false
	}
	var secs float64
	for s.used+need > s.capacity {
		e := s.lru.Back()
		var victim *object
		for e != nil {
			o := e.Value.(*object)
			if !o.pinned {
				victim = o
				break
			}
			e = e.Prev()
		}
		if victim == nil {
			return secs, false
		}
		s.lru.Remove(victim.lruElem)
		victim.lruElem = nil
		victim.spilled = true
		s.used -= victim.size
		s.stats.Spills++
		s.stats.SpilledBytes += victim.size
		secs += s.model.PutSeconds(victim.size, true)
	}
	return secs, true
}

// Put stores an object of the given size and returns the simulated
// seconds the put took. If the object does not fit even after evicting
// everything unpinned, it is created directly on the spill path.
// Putting an ID the store holds replaces that object, as a second
// ray.put makes a new one: the old copy's memory is freed (or its
// spill dropped), and the new copy is placed and charged afresh. A
// pinned object cannot be replaced.
func (s *Store) Put(id ID, size int64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size <= 0 {
		return 0, fmt.Errorf("objstore: object %q has size %d", id, size)
	}
	if old, ok := s.objects[id]; ok {
		if old.pinned {
			return 0, fmt.Errorf("objstore: object %q is pinned", id)
		}
		s.removeLocked(old)
	}
	o := &object{id: id, size: size}
	s.objects[id] = o
	secs, ok := s.evictFor(o.size)
	if !ok || o.size > s.capacity {
		o.spilled = true
		s.stats.Puts++
		s.stats.SpilledBytes += o.size
		secs += s.model.PutSeconds(o.size, true)
		s.stats.PutSeconds += secs
		return secs, nil
	}
	s.used += o.size
	o.lruElem = s.lru.PushFront(o)
	s.stats.Puts++
	secs += s.model.PutSeconds(o.size, false)
	s.stats.PutSeconds += secs
	return secs, nil
}

// Get fetches an object, restoring it from the spill path if needed,
// and returns the simulated seconds the access took.
func (s *Store) Get(id ID) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return 0, fmt.Errorf("objstore: object %q not found", id)
	}
	if !o.spilled {
		s.lru.MoveToFront(o.lruElem)
		s.stats.Gets++
		secs := s.model.GetSeconds(o.size, false)
		s.stats.GetSeconds += secs
		return secs, nil
	}
	// Restore from spill; may evict others.
	secs, ok := s.evictFor(o.size)
	if !ok || o.size > s.capacity {
		// Cannot restore: serve directly from disk.
		s.stats.Gets++
		secs += s.model.GetSeconds(o.size, true)
		s.stats.GetSeconds += secs
		return secs, nil
	}
	o.spilled = false
	s.used += o.size
	o.lruElem = s.lru.PushFront(o)
	s.stats.Restores++
	s.stats.Gets++
	secs += s.model.GetSeconds(o.size, true) // restore reads from disk
	s.stats.GetSeconds += secs
	return secs, nil
}

// AccessSeconds prices a Get without mutating store state — used by
// the scheduler to cost many concurrent readers deterministically.
func (s *Store) AccessSeconds(id ID) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return 0, fmt.Errorf("objstore: object %q not found", id)
	}
	return s.model.GetSeconds(o.size, o.spilled), nil
}

// ReconstructSeconds prices rebuilding a lost copy of an object after
// a node fault, the way Ray recovers plasma objects: the object is
// re-created from lineage (a fresh put at memory rate) and the
// retried task fetches it again. The store's contents are unchanged —
// the surviving copy is authoritative — but the reconstruction is
// recorded in the stats.
func (s *Store) ReconstructSeconds(id ID) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return 0, fmt.Errorf("objstore: object %q not found", id)
	}
	secs := s.model.PutSeconds(o.size, false) + s.model.GetSeconds(o.size, o.spilled)
	s.stats.Reconstructions++
	s.stats.ReconstructedBytes += o.size
	s.stats.ReconstructSeconds += secs
	return secs, nil
}

// Pin protects an object from eviction.
func (s *Store) Pin(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("objstore: object %q not found", id)
	}
	o.pinned = true
	return nil
}

// Unpin releases an object for eviction.
func (s *Store) Unpin(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("objstore: object %q not found", id)
	}
	o.pinned = false
	return nil
}

// removeLocked drops an object, freeing its memory when it is
// resident. The caller must hold s.mu.
func (s *Store) removeLocked(o *object) {
	if o.lruElem != nil {
		s.lru.Remove(o.lruElem)
		s.used -= o.size
	}
	delete(s.objects, o.id)
}
