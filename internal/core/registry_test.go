package core

import (
	"testing"
)

type regTask struct{ name string }

func (f *regTask) Name() string                             { return f.name }
func (f *regTask) Run(Paradigm, RunConfig) (*Result, error) { return &Result{Task: f.name}, nil }

// unregister removes test entries when the test ends, so the registry
// tests can run more than once in a process (-count=N).
func unregister(t *testing.T, names ...string) {
	t.Cleanup(func() {
		registryMu.Lock()
		defer registryMu.Unlock()
		for _, name := range names {
			delete(registry, name)
		}
	})
}

func TestRegistryRoundTrip(t *testing.T) {
	var gotSize int
	var gotSeed uint64
	unregister(t, "fake-rt")
	RegisterTask("fake-rt", 42, func(size int, seed uint64) (Task, error) {
		gotSize, gotSeed = size, seed
		return &regTask{name: "fake-rt"}, nil
	})
	task, err := NewTask("fake-rt", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if task.Name() != "fake-rt" || gotSize != 42 || gotSeed != 7 {
		t.Fatalf("factory saw size=%d seed=%d", gotSize, gotSeed)
	}
	if _, err := NewTask("fake-rt", 5, 1); err != nil {
		t.Fatal(err)
	}
	if gotSize != 5 {
		t.Fatalf("explicit size ignored: %d", gotSize)
	}
	if size, err := TaskDefaultSize("fake-rt"); err != nil || size != 42 {
		t.Fatalf("default size = %d, %v", size, err)
	}
	found := false
	for _, name := range TaskNames() {
		if name == "fake-rt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fake-rt missing from %v", TaskNames())
	}
}

func TestRegistryUnknownTask(t *testing.T) {
	if _, err := NewTask("no-such-task", 0, 0); err == nil {
		t.Fatal("unknown task accepted")
	}
	if _, err := TaskDefaultSize("no-such-task"); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestRegistryRejectsDuplicatesAndBadEntries(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	unregister(t, "fake-dup")
	RegisterTask("fake-dup", 1, func(int, uint64) (Task, error) { return &regTask{}, nil })
	mustPanic("duplicate", func() {
		RegisterTask("fake-dup", 1, func(int, uint64) (Task, error) { return &regTask{}, nil })
	})
	mustPanic("nil factory", func() { RegisterTask("fake-nil", 1, nil) })
	mustPanic("bad size", func() {
		RegisterTask("fake-size", 0, func(int, uint64) (Task, error) { return &regTask{}, nil })
	})
}
