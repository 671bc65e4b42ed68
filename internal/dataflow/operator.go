// Package dataflow implements the GUI-workflow paradigm's execution
// engine — a stand-in for Texera. A workflow is a directed acyclic
// graph of operators connected by edges that carry batches of tuples.
// The engine executes operators with configurable per-operator worker
// parallelism, pipelines batches between operators, tracks per-operator
// progress (input/output tuple counts and operator states, as in the
// paper's Figure 9), supports pause and resume, attributes failures to
// the operator that raised them, and records a cost trace that is
// lowered onto the discrete-event simulator to obtain the simulated
// cluster execution time.
package dataflow

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/relation"
)

// State is the lifecycle state of an operator, mirroring the states
// Texera displays in its GUI.
type State int32

const (
	// Uninitialized means execution has not begun.
	Uninitialized State = iota
	// Initializing means the node is built and has not started.
	Initializing
	// Running means the node has started: its workers are making their
	// instances or processing batches, or it is scanning its table.
	Running
	// Paused means the execution has been paused by the user.
	Paused
	// Completed means all input was consumed and the operator closed.
	Completed
	// Failed means the operator raised an error. It is final.
	Failed
	// Cancelled means a worker of the node stopped because the run's
	// context ended, by the caller's cancel or because another node
	// failed. It is final, and the run returns an error.
	Cancelled
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Uninitialized:
		return "uninitialized"
	case Initializing:
		return "initializing"
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Desc describes an operator's static properties.
type Desc struct {
	// Name labels the operator in progress reports and error traces.
	Name string
	// Language the operator is implemented in; drives CPU cost scaling
	// and serde boundaries.
	Language cost.Language
	// Ports is the number of input ports (0 for none; sources are
	// separate node kinds).
	Ports int
	// BlockingPorts flags ports that must be fully consumed before the
	// operator emits anything downstream (for example a hash join's
	// build port, or the single port of a sort). Length must equal
	// Ports.
	BlockingPorts []bool
	// Stateless declares that instances carry no state across batches:
	// the rows emitted for a batch depend only on that batch (and the
	// schema), never on earlier input or emission order. The optimizer
	// relies on this flag to fuse operators and raise parallelism; a
	// false value is always safe, a wrong true value is not.
	Stateless bool
}

// Validate checks the descriptor.
func (d Desc) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("dataflow: operator with empty name")
	}
	if d.Ports < 1 {
		return fmt.Errorf("dataflow: operator %q has %d ports", d.Name, d.Ports)
	}
	if len(d.BlockingPorts) != d.Ports {
		return fmt.Errorf("dataflow: operator %q: BlockingPorts length %d != Ports %d", d.Name, len(d.BlockingPorts), d.Ports)
	}
	return nil
}

// FullyBlocking reports whether every port is blocking — such an
// operator emits only when it closes.
func (d Desc) FullyBlocking() bool {
	for _, b := range d.BlockingPorts {
		if !b {
			return false
		}
	}
	return d.Ports > 0
}

// ExecCtx is passed to operator instances so they can attribute
// simulated work to themselves and carve the rows they emit.
type ExecCtx interface {
	// AddWork charges simulated CPU work (in Python-second units) to
	// the operator; the engine converts it using the operator's
	// language and distributes it over the operator's batch jobs when
	// lowering to the simulator.
	AddWork(w cost.Work)
	// Out returns the arena the instance carves the rows it emits from.
	// It is the worker's for the whole run and the same on every call;
	// the executor draws every arena of one workflow run, each worker's
	// of every operator, from the run's one relation.ArenaSource. An
	// instance closes each batch it builds (Batch) before it returns it,
	// so both halves of a fused operator can use it.
	Out() *relation.Arena
}

// Operator is a logical operator: a descriptor, a schema rule, and a
// factory for per-worker instances.
type Operator interface {
	// Desc returns the operator's static description.
	Desc() Desc
	// OutputSchema derives the output schema from the input schemas
	// (one per port). It is called during workflow validation.
	OutputSchema(inputs []*relation.Schema) (*relation.Schema, error)
	// NewInstance makes one worker's processing state ready for its
	// first batch: in holds the input schemas (one per port), which it
	// binds column positions and tables to, and per-worker setup work
	// (a model load, a table build) is charged to ec before any input
	// arrives.
	NewInstance(ec ExecCtx, in []*relation.Schema) (Instance, error)
}

// Instance is the per-worker processing state of an operator.
// The engine guarantees that ports are delivered in ascending order:
// all batches (and the EndPort call) of port p happen before any batch
// of port p+1.
type Instance interface {
	// Process consumes one batch from a port and returns output rows
	// (possibly none).
	Process(ec ExecCtx, port int, rows []relation.Tuple) ([]relation.Tuple, error)
	// EndPort signals that a port is exhausted; it may emit rows (for
	// example a blocking aggregation emits its groups when its only
	// port ends).
	EndPort(ec ExecCtx, port int) ([]relation.Tuple, error)
}

// Partitioning decides how an edge distributes producer batches among
// the consumer's workers.
type Partitioning struct {
	kind partKind
	key  string
}

type partKind int

const (
	partRoundRobin partKind = iota
	partHash
	partBroadcast
)

// RoundRobin distributes batches to consumer workers in turn.
func RoundRobin() Partitioning { return Partitioning{kind: partRoundRobin} }

// HashPartition splits each batch's rows by a hash of the named field
// so that equal keys always reach the same worker — required for
// parallel stateful operators such as joins and group-bys.
func HashPartition(field string) Partitioning {
	return Partitioning{kind: partHash, key: field}
}

// Broadcast copies every batch to every consumer worker.
func Broadcast() Partitioning { return Partitioning{kind: partBroadcast} }

// String renders the partitioning for diagnostics.
func (p Partitioning) String() string {
	switch p.kind {
	case partHash:
		return "hash(" + p.key + ")"
	case partBroadcast:
		return "broadcast"
	default:
		return "round-robin"
	}
}

// OpError attributes a failure to one operator — the workflow
// paradigm's operator-level error reporting (paper Aspect #1).
type OpError struct {
	Op     string // operator name
	Worker int    // worker index, -1 when not applicable
	Port   int    // input port, -1 when not applicable
	Err    error
}

// Error renders the operator-level trace line.
func (e *OpError) Error() string {
	if e.Worker >= 0 {
		return fmt.Sprintf("operator %q (worker %d, port %d): %v", e.Op, e.Worker, e.Port, e.Err)
	}
	return fmt.Sprintf("operator %q: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying error.
func (e *OpError) Unwrap() error { return e.Err }
