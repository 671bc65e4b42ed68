package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// TaskFactory builds one task instance at a given input size and data
// seed.
type TaskFactory func(size int, seed uint64) (Task, error)

type registryEntry struct {
	factory     TaskFactory
	defaultSize int
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]registryEntry)
)

// RegisterTask adds a named task constructor with its paper-scale
// default input size. Task packages call it from init, so importing a
// task package is what makes it runnable by name — the harness and CLI
// resolve tasks through this table instead of switch-casing. Duplicate
// names and nil factories panic: both are wiring bugs.
func RegisterTask(name string, defaultSize int, factory TaskFactory) {
	if name == "" || factory == nil {
		panic("core: RegisterTask needs a name and a factory")
	}
	if defaultSize <= 0 {
		panic(fmt.Sprintf("core: task %q registered with default size %d", name, defaultSize))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: task %q registered twice", name))
	}
	registry[name] = registryEntry{factory: factory, defaultSize: defaultSize}
}

// NewTask builds a registered task. size <= 0 uses the task's default.
func NewTask(name string, size int, seed uint64) (Task, error) {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown task %q (have %v)", name, TaskNames())
	}
	if size <= 0 {
		size = e.defaultSize
	}
	return e.factory(size, seed)
}

// TaskNames lists the registered task names, sorted.
func TaskNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return slices.Sorted(maps.Keys(registry))
}

// TaskDefaultSize returns a registered task's paper-scale input size.
func TaskDefaultSize(name string) (int, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown task %q", name)
	}
	return e.defaultSize, nil
}
