package obs

import (
	"reflect"

	"repro/internal/paged"
	"repro/internal/service"
)

// Accessors the external tests read a server and its runs through.

// Registry returns the server's run registry.
func (s *Server) Registry() *Registry { return s.reg }

// Service returns the scheduling tier.
func (s *Server) Service() *service.Service { return s.svc }

// Note reads one note back; empty when unset.
func (r *Run) Note(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notes[key]
}

// roomOf returns how many records a store's pages have room for. The
// store exports no capacity, so its pages are read by reflection.
func roomOf[T any](s *paged.Store[T]) int {
	pages := reflect.ValueOf(s).Elem().FieldByName("pages")
	n := 0
	for i := range pages.Len() {
		n += pages.Index(i).Cap()
	}
	return n
}
