package sim

import (
	"fmt"
	"sort"
)

// Group is Count jobs with consecutive IDs, First to First+Count-1,
// that share a pool, a cost and a latency and wait by one rule: every
// job of the group waits on every job of each group in After, and job
// j also waits on one job of group Up, its job min(j, n-1) for an Up of
// n jobs, or with UpLast its last job. A lowering whose jobs come in
// runs of equal cost with regular dependencies (a port's batches, the
// barrier after them) states them as a few groups, where a job list
// needs a Job and a Deps slice per job.
type Group struct {
	First   JobID
	Count   int32
	Pool    int32   // position of the group's pool in the pool slice
	Up      int32   // position of the upstream group, or -1 for none
	Cost    float64 // of each job
	Latency float64 // of each job
	After   []int32 // positions of the groups every job waits on whole
	UpLast  bool
}

// Graph is the job graph one schedule runs: an explicit job list, read
// as one-job groups (job k is group k and waits on its Deps), or
// groups. The event loop, the critical chain and the recorder walk
// either the same way, generating a job's cost, pool, dependencies and
// dependents from its group.
type Graph struct {
	jobs   []Job
	groups []Group
}

// OfJobs is the graph of an explicit job list.
func OfJobs(jobs []Job) Graph { return Graph{jobs: jobs} }

// OfGroups is the graph of groups, whose jobs are numbered in group
// order: each group's First is the sum of the Counts before it.
func OfGroups(groups []Group) Graph { return Graph{groups: groups} }

func (g *Graph) grouped() bool { return g.groups != nil }

// Len is the number of jobs.
func (g Graph) Len() int {
	if !g.grouped() {
		return len(g.jobs)
	}
	if len(g.groups) == 0 {
		return 0
	}
	last := &g.groups[len(g.groups)-1]
	return int(last.First) + int(last.Count)
}

// NumGroups is the number of groups; an explicit list has one per job.
func (g Graph) NumGroups() int {
	if !g.grouped() {
		return len(g.jobs)
	}
	return len(g.groups)
}

// Group returns group k. Of an explicit list it is job k with no After:
// the job's Deps name jobs, which Expand returns as they are.
func (g Graph) Group(k int) Group {
	if g.grouped() {
		return g.groups[k]
	}
	j := &g.jobs[k]
	return Group{First: JobID(k), Count: 1, Pool: j.Pool, Up: -1, Cost: j.Cost, Latency: j.Latency}
}

// GroupOf returns the position of the group job id belongs to.
func (g Graph) GroupOf(id JobID) int {
	if !g.grouped() {
		return int(id)
	}
	return sort.Search(len(g.groups), func(k int) bool { return g.groups[k].First > id }) - 1
}

// attr is group k's pool, cost and latency.
func (g *Graph) attr(k int32) (int32, float64, float64) {
	if g.grouped() {
		gr := &g.groups[k]
		return gr.Pool, gr.Cost, gr.Latency
	}
	j := &g.jobs[k]
	return j.Pool, j.Cost, j.Latency
}

// span is group k's first job and job count.
func (g *Graph) span(k int32) (JobID, int32) {
	if g.grouped() {
		return g.groups[k].First, g.groups[k].Count
	}
	return JobID(k), 1
}

// upJob is the job of gr.Up that gr's job j waits on.
func (g *Graph) upJob(gr *Group, j int32) JobID {
	up := &g.groups[gr.Up]
	if gr.UpLast || j >= up.Count {
		return up.First + JobID(up.Count-1)
	}
	return up.First + JobID(j)
}

// checkGroups returns an error for groups that do not number their jobs
// in order, or that have a negative cost or latency or reference an
// unknown pool (of pools; none is checked when pools < 0) or group. An
// explicit list is checked job by job where it is read.
func (g *Graph) checkGroups(pools int) error {
	next := JobID(0)
	for k := range g.groups {
		gr := &g.groups[k]
		switch {
		case gr.First != next:
			return fmt.Errorf("sim: group %d starts at job %d, want %d", k, gr.First, next)
		case gr.Count < 1:
			return fmt.Errorf("sim: group %d has %d jobs", k, gr.Count)
		case gr.Cost < 0:
			return fmt.Errorf("sim: group %d has negative cost %g", k, gr.Cost)
		case gr.Latency < 0:
			return fmt.Errorf("sim: group %d has negative latency %g", k, gr.Latency)
		case pools >= 0 && (gr.Pool < 0 || int(gr.Pool) >= pools):
			return fmt.Errorf("sim: group %d references unknown pool %d", k, gr.Pool)
		case gr.Up < -1 || int(gr.Up) >= len(g.groups) || (gr.UpLast && gr.Up < 0):
			return fmt.Errorf("sim: group %d waits on unknown group %d", k, gr.Up)
		}
		for _, a := range gr.After {
			if a < 0 || int(a) >= len(g.groups) {
				return fmt.Errorf("sim: group %d waits on unknown group %d", k, a)
			}
		}
		next += JobID(gr.Count)
	}
	return nil
}

// Expand lists g's jobs explicitly: each with its group's pool, cost
// and latency, and as Deps every job of its After groups in order, then
// its Up job. An explicit list is returned as it is.
func (g Graph) Expand() []Job {
	if !g.grouped() {
		return g.jobs
	}
	deps := 0
	for k := range g.groups {
		gr := &g.groups[k]
		per := 0
		for _, a := range gr.After {
			per += int(g.groups[a].Count)
		}
		if gr.Up >= 0 {
			per++
		}
		deps += per * int(gr.Count)
	}
	jobs := make([]Job, 0, g.Len())
	arena := make([]JobID, 0, deps)
	for k := range g.groups {
		gr := &g.groups[k]
		for j := range gr.Count {
			start := len(arena)
			for _, a := range gr.After {
				first, n := g.span(a)
				for d := first; d < first+JobID(n); d++ {
					arena = append(arena, d)
				}
			}
			if gr.Up >= 0 {
				arena = append(arena, g.upJob(gr, j))
			}
			var d []JobID
			if len(arena) > start {
				d = arena[start:len(arena):len(arena)]
			}
			jobs = append(jobs, Job{Cost: gr.Cost, Latency: gr.Latency, Pool: gr.Pool, Deps: d})
		}
	}
	return jobs
}
