// Package raysim simulates the Ray-style task backend that the script
// paradigm uses to scale beyond one machine. A driver submits tasks
// with dependencies; the scheduler runs them on a CPU pool whose size
// is the `num_cpus` configuration — the paper's "number of workers" for
// the script paradigm. Tasks may fetch objects from the shared object
// store before running, and framework (PyTorch) work is throttled to
// the model's TorchCoresRay setting, both mechanisms the paper uses to
// explain the script paradigm's behaviour on GOTTA and KGE.
package raysim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/objstore"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Cluster is a Ray head plus worker CPUs and an object store.
type Cluster struct {
	model   *cost.Model
	numCPUs int
	store   *objstore.Store
	topo    shard.Topology
}

// PaperStoreBytes is the plasma store size the paper's Ray setup used
// (Ray's default ~30% RAM share of one 64 GB node).
const PaperStoreBytes = int64(19) << 30

// NewClusterFor creates a Ray cluster for a shard topology: the paper
// cluster with the paper's 19 GB plasma store on the legacy tier, or a
// topology-sized cluster whose store grows with the node count on the
// sharded tier. It rejects num_cpus beyond the topology's worker vCPUs.
// Jobs created on it price cross-node object fetches automatically.
func NewClusterFor(model *cost.Model, topo shard.Topology, numCPUs int) (*Cluster, error) {
	if limit := topo.TotalVCPUs(); numCPUs > limit {
		return nil, fmt.Errorf("raysim: num_cpus=%d exceeds the cluster's %d worker vCPUs", numCPUs, limit)
	}
	store := PaperStoreBytes
	if topo.Sharded() {
		store = max(PaperStoreBytes*int64(topo.NumNodes())/shard.PaperWorkerNodes, PaperStoreBytes)
	}
	c, err := NewCluster(model, numCPUs, store)
	if err != nil {
		return nil, err
	}
	c.topo = topo
	return c, nil
}

// NewCluster creates a cluster with numCPUs schedulable CPUs and an
// object store of storeBytes capacity. A nil model uses cost.Default().
func NewCluster(model *cost.Model, numCPUs int, storeBytes int64) (*Cluster, error) {
	if model == nil {
		model = cost.Default()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if numCPUs < 1 {
		return nil, fmt.Errorf("raysim: num_cpus must be at least 1, got %d", numCPUs)
	}
	store, err := objstore.New(model, storeBytes)
	if err != nil {
		return nil, err
	}
	return &Cluster{model: model, numCPUs: numCPUs, store: store}, nil
}

// Store returns the shared object store.
func (c *Cluster) Store() *objstore.Store { return c.store }

// rayTrack names the CPU pool every task runs on, and its trace track.
const rayTrack = "ray-cpus"

// TaskID identifies a task within one Job.
type TaskID int

// TaskSpec describes one remote task.
type TaskSpec struct {
	// Name labels the task in errors and traces.
	Name string
	// Work is interpreter-level work (runs at Python speed on one CPU).
	Work cost.Work
	// FrameworkSeconds is ML-framework work measured at one core; it is
	// scaled by the Torch parallelism Ray permits (num_cpus=1 pins it
	// to a single core, per the paper's worker-configuration note).
	FrameworkSeconds float64
	// Gets lists objects fetched from the object store before the task
	// body runs.
	Gets []objstore.ID
	// Deps lists tasks that must finish first.
	Deps []TaskID
}

// Job is a DAG of tasks under construction for one driver submission.
type Job struct {
	cluster  *Cluster
	tasks    []TaskSpec
	err      error
	rec      *telemetry.Recorder
	proc     string
	plan     faults.Plan
	topo     shard.Topology
	progress core.ProgressSink
	progTask string
}

// SetFaults arms a deterministic fault plan for Run. Recovery follows
// Ray's lineage semantics: a killed task is re-executed whole after a
// capped exponential backoff, and a node-level fault additionally
// reconstructs the objects the task was fetching. The task bodies
// themselves are untouched, so outputs are bit-identical to the
// failure-free run.
func (j *Job) SetFaults(plan faults.Plan) { j.plan = plan }

// SetTelemetry attaches a recorder; Run then emits one span per task on
// the "ray-cpus" track of process proc, stamped with the sim virtual
// clock, plus a critical-path breakdown. A nil recorder (the default)
// keeps Run uninstrumented.
func (j *Job) SetTelemetry(rec *telemetry.Recorder, proc string) {
	j.rec = rec
	j.proc = proc
}

// SetProgress attaches a live progress sink for Run. The script
// paradigm cannot stream truly live per-task state the way the
// dataflow engine does — virtual task times do not exist until the
// schedule is computed — so Run publishes one completion event per
// task after scheduling, stamped with the task's virtual finish time
// and ordered by it. That post-hoc cadence is the paper's visibility
// asymmetry, reproduced rather than papered over.
func (j *Job) SetProgress(sink core.ProgressSink, task string) {
	j.progress = sink
	j.progTask = task
}

// NewJob starts an empty task graph on the cluster's topology. On a
// multi-node topology a task's object fetches are no longer node-local:
// the store is datum-sharded, so the expected (N-1)/N fraction of each
// fetched object rides the NIC on top of the plasma access. Like
// faults, this touches only the schedule.
func (c *Cluster) NewJob() *Job {
	return &Job{cluster: c, topo: c.topo}
}

// Submit adds a task and returns its ID.
func (j *Job) Submit(spec TaskSpec) TaskID {
	id := TaskID(len(j.tasks))
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("task-%d", id)
	}
	for _, d := range spec.Deps {
		if int(d) < 0 || int(d) >= len(j.tasks) {
			if j.err == nil {
				j.err = fmt.Errorf("raysim: task %q depends on unknown task %d", spec.Name, d)
			}
		}
	}
	if spec.FrameworkSeconds < 0 && j.err == nil {
		j.err = fmt.Errorf("raysim: task %q has negative framework seconds", spec.Name)
	}
	j.tasks = append(j.tasks, spec)
	return id
}

// Len returns the number of submitted tasks.
func (j *Job) Len() int { return len(j.tasks) }

// Result reports a completed job.
type Result struct {
	// Makespan is the simulated seconds from submission to the last
	// task finishing.
	Makespan float64
	// ParallelTasks is the peak number of concurrently running tasks —
	// the paper's "number of parallel processes" metric.
	ParallelTasks int
	// Recovery aggregates fault-recovery work (zero without a fault
	// plan); per-object reconstruction detail is in Store().Stats().
	Recovery sim.Recovery
	// ShuffleBytes totals the cross-node share of object fetches on a
	// sharded topology (zero on the legacy single-cluster tier).
	ShuffleBytes int64
}

// Run schedules the job on the cluster and returns its simulated
// timeline. Object fetches are priced against the store's current
// state; torch work is scaled by the Ray core limit.
func (j *Job) Run() (*Result, error) {
	if j.err != nil {
		return nil, j.err
	}
	if len(j.tasks) == 0 {
		return nil, fmt.Errorf("raysim: empty job")
	}
	m := j.cluster.model
	torch := cost.TorchSpeedup(m.TorchCoresRay)

	nodes := j.topo.NumNodes()
	var shuffleBytes int64
	jobs := make([]sim.Job, 0, len(j.tasks))
	for _, t := range j.tasks {
		var getSecs float64
		for _, id := range t.Gets {
			s, err := j.cluster.store.AccessSeconds(id)
			if err != nil {
				return nil, fmt.Errorf("raysim: task %q: %w", t.Name, err)
			}
			getSecs += s
			if j.topo.Sharded() {
				// The store is datum-sharded: an expected (N-1)/N of the
				// object lives on other nodes and rides the NIC.
				cross := shard.ExHash.CrossBytes(j.cluster.store.Size(id), nodes)
				shuffleBytes += cross
				getSecs += m.ShuffleSeconds(cross)
			}
		}
		deps := make([]sim.JobID, len(t.Deps))
		for k, d := range t.Deps {
			deps[k] = sim.JobID(d)
		}
		jobs = append(jobs, sim.Job{
			// The object-store fetch happens inside the task body (it
			// holds the CPU while deserializing), so it is cost, not
			// latency; the fixed task overhead covers scheduling.
			Cost: m.TaskOverhead + t.Work.Seconds(cost.Python) + t.FrameworkSeconds/torch + getSecs,
			Deps: deps,
		})
	}
	pools := []sim.Pool{{Name: rayTrack, Slots: j.cluster.numCPUs}}
	// Under a fault plan, killed tasks retry from lineage after a capped
	// exponential backoff, and a node-level fault also rebuilds the
	// objects the task was fetching.
	sched, err := j.plan.Schedule(sim.OfJobs(jobs), pools, sim.RetryPolicy{
		Delay: func(_ sim.JobID, r int) float64 { return j.plan.Backoff(r) },
		ExtraCost: func(id sim.JobID, _ int, lost bool) float64 {
			if !lost {
				return 0
			}
			// Job IDs are task indices: rebuild the killed task's
			// object fetches from lineage.
			var secs float64
			for _, obj := range j.tasks[id].Gets {
				s, err := j.cluster.store.ReconstructSeconds(obj)
				if err != nil {
					continue // object deleted since submission
				}
				secs += s
			}
			return secs
		},
	}, true)
	if err != nil {
		return nil, err
	}
	j.recordTelemetry(jobs, sched)
	j.publishProgress(sched)
	return &Result{
		Makespan:      sched.Makespan,
		ParallelTasks: peakConcurrency(sched),
		Recovery:      sched.Recovery,
		ShuffleBytes:  shuffleBytes,
	}, nil
}

// recordTelemetry emits one virtual-clock span per scheduled task plus
// a critical-path row and per-job counters. Spans are stamped from the
// deterministic sim schedule, so instrumented runs export bit-equal.
func (j *Job) recordTelemetry(jobs []sim.Job, sched *sim.Result) {
	if j.rec == nil {
		return
	}
	proc := j.proc
	if proc == "" {
		proc = "script:ray"
	}
	lane := j.rec.Lane(proc, rayTrack, "task")
	j.rec.RecordSchedule(sim.OfJobs(jobs), sched, func(i int) (telemetry.Lane, telemetry.JobName) {
		return lane, telemetry.Named(j.tasks[i].Name)
	})
	var totalCost float64
	for i := range jobs {
		totalCost += jobs[i].Cost
	}
	reg := j.rec.Metrics
	reg.Counter("ray." + proc + ".tasks").Add(int64(len(jobs)))
	if rec := sched.Recovery; rec.Kills > 0 {
		reg.Counter("ray." + proc + ".recovery.kills").Add(int64(rec.Kills))
		reg.Counter("ray." + proc + ".recovery.node_kills").Add(int64(rec.NodeKills))
		j.rec.SetMeta("ray."+proc+".recovery.lost_seconds", fmt.Sprintf("%.6f", rec.LostSeconds))
		j.rec.SetMeta("ray."+proc+".recovery.backoff_seconds", fmt.Sprintf("%.6f", rec.DelaySeconds))
		j.rec.SetMeta("ray."+proc+".recovery.reconstruct_seconds", fmt.Sprintf("%.6f", rec.ExtraCostSeconds))
	}
	j.rec.AddCritical(telemetry.CriticalRows(proc, sim.OfJobs(jobs), func(int) string { return rayTrack })...)
	j.rec.SetMeta("ray."+proc+".makespan", fmt.Sprintf("%.6f", sched.Makespan))
	j.rec.SetMeta("ray."+proc+".cpu_seconds", fmt.Sprintf("%.6f", totalCost))
}

// publishProgress emits one virtual-stamped completion event per
// scheduled task, in deterministic (finish time, task id) order.
func (j *Job) publishProgress(sched *sim.Result) {
	if j.progress == nil {
		return
	}
	order := make([]int, len(sched.Spans))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(sched.Spans[a].Finish, sched.Spans[b].Finish), cmp.Compare(a, b))
	})
	for _, i := range order {
		j.progress.Publish(core.ProgressEvent{
			Task:        j.progTask,
			Paradigm:    "script",
			Op:          j.tasks[i].Name,
			Kind:        "task",
			State:       "completed",
			VirtSeconds: sched.Spans[i].Finish,
		})
	}
}

// peakConcurrency computes the maximum number of overlapping spans.
func peakConcurrency(s *sim.Result) int {
	type ev struct {
		at    float64
		delta int
	}
	var evs []ev
	for _, sp := range s.Spans {
		if sp.Finish > sp.Start {
			evs = append(evs, ev{sp.Start, 1}, ev{sp.Finish, -1})
		}
	}
	// Sort by time; ends before starts at the same instant.
	slices.SortFunc(evs, func(a, b ev) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta))
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
