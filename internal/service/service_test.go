package service_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/service"

	_ "repro/internal/tasks/dice"
	_ "repro/internal/tasks/wef"
)

func TestServiceExecutesAndDrains(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]int{}
	svc := service.New(service.Config{BudgetVCPUs: 4}, func(job *service.Job) {
		mu.Lock()
		ran[job.Tenant]++
		mu.Unlock()
	})
	for i := 0; i < 6; i++ {
		if _, err := svc.Submit(service.Job{Tenant: "a", VCPUs: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(service.Job{Tenant: "b", VCPUs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	mu.Lock()
	got := map[string]int{"a": ran["a"], "b": ran["b"]}
	mu.Unlock()
	if got["a"] != 6 || got["b"] != 6 {
		t.Fatalf("runner executions %+v, want 6 per tenant", got)
	}
	if used := svc.UsedVCPUs(); used != 0 {
		t.Fatalf("used vCPUs = %d after drain", used)
	}
	for _, st := range svc.Stats() {
		if st.Completed != 6 || st.Queued != 0 || st.Inflight != 0 {
			t.Fatalf("tenant %s not drained: %+v", st.Tenant, st)
		}
	}
	if _, err := svc.Submit(service.Job{Tenant: "a", VCPUs: 1}); err == nil {
		t.Fatal("submit after close accepted")
	}
}

// specDigests runs the spec directly through core and returns each
// paradigm's output digest — the ground truth the service path must
// reproduce bit-for-bit.
func specDigests(spec core.RunSpec) (map[string]string, error) {
	task, err := spec.NewTask()
	if err != nil {
		return nil, err
	}
	rc, err := spec.Config()
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, p := range spec.Paradigms() {
		res, err := task.Run(p, rc)
		if err != nil {
			return nil, err
		}
		out[p.String()] = fmt.Sprintf("%016x", relation.Digest(res.Output))
	}
	return out, nil
}

// TestServicePathOutputsMatchDirectRuns is the golden check: task
// outputs produced under the scheduler (queueing, dispatch on a worker
// goroutine) are bit-identical to direct core runs of the same spec.
func TestServicePathOutputsMatchDirectRuns(t *testing.T) {
	specs := []core.RunSpec{
		{Task: "dice", Paradigm: "both", Size: 200},
		{Task: "wef", Paradigm: "both", Size: 120, Workers: 4, Seed: 3},
	}
	var mu sync.Mutex
	served := make(map[string]map[string]string)
	errs := make(map[string]error)
	svc := service.New(service.Config{}, func(job *service.Job) {
		d, err := specDigests(job.Spec)
		mu.Lock()
		served[job.ID], errs[job.ID] = d, err
		mu.Unlock()
	})
	ids := make(map[string]core.RunSpec)
	for _, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		job, err := svc.Submit(service.Job{Tenant: norm.Tenant, VCPUs: norm.Workers, Spec: norm})
		if err != nil {
			t.Fatal(err)
		}
		ids[job.ID] = norm
	}
	svc.Close()
	for id, norm := range ids {
		if err := errs[id]; err != nil {
			t.Fatalf("service run of %s failed: %v", norm.Task, err)
		}
		direct, err := specDigests(norm)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := served[id]
		mu.Unlock()
		if !reflect.DeepEqual(got, direct) {
			t.Fatalf("%s: service-path digests %v != direct %v", norm.Task, got, direct)
		}
	}
}
