package objstore

import "fmt"

// Test-only views of a store's state, and Delete.

// Used returns the bytes currently resident in memory.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity returns the memory budget.
func (s *Store) Capacity() int64 { return s.capacity }

// Contains reports whether the object exists (in memory or spilled).
func (s *Store) Contains(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[id]
	return ok
}

// Spilled reports whether the object is currently on the spill path.
func (s *Store) Spilled(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	return ok && o.spilled
}

// Delete removes an object entirely, through the drop a re-put makes.
func (s *Store) Delete(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("objstore: object %q not found", id)
	}
	s.removeLocked(o)
	return nil
}
