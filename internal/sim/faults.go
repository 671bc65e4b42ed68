package sim

// FaultEvent kills one running job at a virtual time. The victim is
// chosen deterministically: the running jobs (optionally restricted to
// one pool) are ordered by position and indexed by Salt, so a fault
// sequence plus a job set fully determines the schedule. A fault that
// strikes while nothing (matching) is running is a no-op, like a node
// crashing between tasks.
type FaultEvent struct {
	// At is the virtual time of the fault.
	At float64
	// Pool restricts victims to the pool at this position; AnyPool
	// means any pool.
	Pool int32
	// Salt selects among the running jobs.
	Salt uint64
	// LoseObjects marks a node-level fault: the retry policy may charge
	// object reconstruction on top of re-execution.
	LoseObjects bool
}

// AnyPool is the FaultEvent.Pool of a fault that may strike any pool.
const AnyPool = -1

// RetryPolicy controls how a killed job is re-executed. Both paradigms
// express their recovery semantics through it: the Ray-style backend
// retries with capped exponential backoff and pays object
// reconstruction after node faults; the dataflow engine restarts the
// worker and replays from the last checkpoint.
type RetryPolicy struct {
	// Delay returns the wait in seconds before the retry-th re-execution
	// (1-based) of job id may re-enter its pool's queue. Nil means no
	// delay.
	Delay func(id JobID, retry int) float64
	// ExtraCost returns seconds added to the retried attempt's slot time
	// (checkpoint restore reads, object reconstruction). Nil means none.
	ExtraCost func(id JobID, retry int, objectsLost bool) float64
	// MaxRetries bounds retries per job; 0 means DefaultMaxRetries.
	// Exceeding it is an error: the run is declared unrecoverable.
	MaxRetries int
}

// DefaultMaxRetries is the per-job retry bound when RetryPolicy leaves
// MaxRetries zero.
const DefaultMaxRetries = 64

// Abort records one killed attempt.
type Abort struct {
	// Job is the killed job; Attempt is the 1-based attempt number that
	// died.
	Job     JobID
	Attempt int
	// Start and Killed bound the aborted attempt on the virtual clock.
	Start  float64
	Killed float64
	// LostObjects marks node-level faults.
	LostObjects bool
}

// Recovery aggregates the fault-recovery work of a schedule. It is
// zero for fault-free runs.
type Recovery struct {
	// Kills counts aborted attempts; NodeKills the subset that also
	// lost objects.
	Kills     int
	NodeKills int
	// LostSeconds is partial work discarded with killed attempts;
	// DelaySeconds is time spent waiting to retry (backoff, worker
	// respawn); ExtraCostSeconds is added restore/reconstruction work.
	LostSeconds      float64
	DelaySeconds     float64
	ExtraCostSeconds float64
}
