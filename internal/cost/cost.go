// Package cost defines the calibrated cost model that converts real
// work performed by the engines (tuples processed, bytes serialized,
// bytes moved, model parameters touched) into simulated seconds.
//
// The experiments in the reproduced paper were run on a 4-node Google
// Cloud cluster; we replace that hardware with this model plus the
// discrete-event simulator in internal/sim. Constants are calibrated so
// headline measurements land near the paper's reported values; the
// reproduction's claim is about the *shape* of each comparison (who
// wins, by what rough factor, where behaviour changes), which emerges
// from the mechanisms below rather than from the constants.
package cost

import (
	"fmt"
	"math"
)

// Language identifies the implementation language of an operator or
// script step. The paper contrasts Python operators against Scala
// operators (Texera's native language) and discusses Java support.
type Language int

const (
	// Python is the baseline language of both paradigms' user code.
	Python Language = iota
	// Scala is Texera's engine language; compiled and substantially
	// faster on interpreter-bound work.
	Scala
	// Java behaves like Scala for costing purposes.
	Java
	// R is accepted for completeness (Aspect #3 discusses R users); it
	// costs like Python.
	R
)

// String returns the language name.
func (l Language) String() string {
	switch l {
	case Python:
		return "Python"
	case Scala:
		return "Scala"
	case Java:
		return "Java"
	case R:
		return "R"
	default:
		return fmt.Sprintf("Language(%d)", int(l))
	}
}

// InterpFactor is the multiplier applied to interpreter-bound CPU work.
// Python is the 1.0 baseline: all per-tuple work constants in the task
// definitions are expressed in Python-seconds.
func (l Language) InterpFactor() float64 {
	switch l {
	case Scala, Java:
		// Compiled JVM code runs interpreter-bound inner loops roughly
		// an order of magnitude faster than CPython. The visible gap in
		// end-to-end workflows is smaller because memory-bound work
		// (hash probes over large tables) does not shrink; see Work.
		return 0.12
	default:
		return 1.0
	}
}

// Work is a language-decomposed amount of CPU time for one unit of
// data, expressed in Python-seconds. Interp scales with the language's
// interpreter factor; Mem is memory/cache-bound and language
// independent — the mechanism behind the paper's Table I observation
// that the Scala advantage fades as the KGE input grows.
type Work struct {
	Interp float64
	Mem    float64
}

// Seconds returns the simulated seconds this work takes in language l
// on a single CPU slot.
func (w Work) Seconds(l Language) float64 {
	return w.Interp*l.InterpFactor() + w.Mem
}

// Scale multiplies both components by k.
func (w Work) Scale(k float64) Work {
	return Work{Interp: w.Interp * k, Mem: w.Mem * k}
}

// Add sums two works componentwise.
func (w Work) Add(o Work) Work {
	return Work{Interp: w.Interp + o.Interp, Mem: w.Mem + o.Mem}
}

// Model holds the platform-level rate constants.
type Model struct {
	// SerdeBytesPerSec is the serialization (or deserialization)
	// throughput at operator boundaries that cross languages or
	// process boundaries. Texera pays this on every edge; the paper's
	// Aspect #4 calls it out as the workflow paradigm's main overhead.
	SerdeBytesPerSec float64

	// NetworkBytesPerSec is the point-to-point bandwidth between
	// cluster nodes, used for shuffles and model broadcast.
	NetworkBytesPerSec float64

	// ObjectStorePutBytesPerSec and ObjectStoreGetBytesPerSec model
	// Ray's shared object store ("plasma"). Large objects such as the
	// 1.59 GB GOTTA model are put once and fetched by each worker; the
	// paper attributes the notebook paradigm's GOTTA slowdown to these
	// accesses.
	ObjectStorePutBytesPerSec float64
	ObjectStoreGetBytesPerSec float64

	// SpillBytesPerSec is the throughput of the object store's disk
	// spill path once its memory cap is exceeded.
	SpillBytesPerSec float64

	// TaskOverhead is the fixed scheduling cost of one Ray task
	// submission (serialize closure, enqueue, dispatch).
	TaskOverhead float64

	// OperatorStartup is the fixed cost of initializing one workflow
	// operator worker (start the Python UDF process, open channels).
	OperatorStartup float64

	// ControlOverhead is the fixed cost of submitting a workflow or a
	// script for execution (compile the DAG / start the kernel).
	ControlOverhead float64

	// CheckpointPutBytesPerSec and CheckpointGetBytesPerSec model the
	// dataflow engine's epoch-checkpoint path: operator state written
	// to replicated storage at batch-boundary epochs, and read back
	// when a restarted worker restores. Writes are slower than the
	// object store (replication), restores read a single copy.
	CheckpointPutBytesPerSec float64
	CheckpointGetBytesPerSec float64

	// TorchCoresTexera and TorchCoresRay give the number of intra-op
	// threads the ML framework may use under each paradigm. The paper's
	// worker-configuration section explains that Ray pins PyTorch to a
	// single CPU (num_cpus=1) while Texera leaves it unconstrained, so
	// forward passes on an 8-vCPU node differ by this ratio.
	TorchCoresTexera int
	TorchCoresRay    int
}

// Default returns the calibrated model used by the experiment harness.
func Default() *Model {
	return &Model{
		SerdeBytesPerSec:          220e6, // ~220 MB/s Arrow-style serde
		NetworkBytesPerSec:        1.2e9, // ~10 Gbit intra-zone GCP
		ObjectStorePutBytesPerSec: 650e6,
		ObjectStoreGetBytesPerSec: 900e6,
		SpillBytesPerSec:          140e6, // HDD-backed spill
		TaskOverhead:              0.004,
		OperatorStartup:           0.35,
		ControlOverhead:           1.2,
		CheckpointPutBytesPerSec:  180e6, // replicated write path
		CheckpointGetBytesPerSec:  420e6, // single-copy restore read
		// Texera leaves PyTorch unconstrained, but a UDF worker shares
		// its 8-vCPU node with the engine's JVM and data channels, so
		// framework kernels see roughly six cores in practice.
		TorchCoresTexera: 6,
		TorchCoresRay:    1,
	}
}

// Digest returns a deterministic FNV-1a hash of every rate constant in
// the model. Lineage fingerprints fold it in so cached artifacts from a
// differently-calibrated model never satisfy a lookup: a recalibration
// is an edit, not a cache hit.
func (m *Model) Digest() uint64 {
	const (
		offset64 = 14695981039346269563
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, f := range []float64{
		m.SerdeBytesPerSec, m.NetworkBytesPerSec,
		m.ObjectStorePutBytesPerSec, m.ObjectStoreGetBytesPerSec,
		m.SpillBytesPerSec, m.TaskOverhead, m.OperatorStartup,
		m.ControlOverhead, m.CheckpointPutBytesPerSec, m.CheckpointGetBytesPerSec,
	} {
		mix(math.Float64bits(f))
	}
	mix(uint64(m.TorchCoresTexera))
	mix(uint64(m.TorchCoresRay))
	return h
}

// Validate reports an error if any rate is non-positive.
func (m *Model) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"SerdeBytesPerSec", m.SerdeBytesPerSec},
		{"NetworkBytesPerSec", m.NetworkBytesPerSec},
		{"ObjectStorePutBytesPerSec", m.ObjectStorePutBytesPerSec},
		{"ObjectStoreGetBytesPerSec", m.ObjectStoreGetBytesPerSec},
		{"SpillBytesPerSec", m.SpillBytesPerSec},
		{"CheckpointPutBytesPerSec", m.CheckpointPutBytesPerSec},
		{"CheckpointGetBytesPerSec", m.CheckpointGetBytesPerSec},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("cost: %s must be positive, got %g", c.name, c.v)
		}
	}
	if m.TaskOverhead < 0 || m.OperatorStartup < 0 || m.ControlOverhead < 0 {
		return fmt.Errorf("cost: overheads must be non-negative")
	}
	if m.TorchCoresTexera <= 0 || m.TorchCoresRay <= 0 {
		return fmt.Errorf("cost: torch core counts must be positive")
	}
	return nil
}

// SerdeSeconds returns the time to serialize (or deserialize) n bytes.
func (m *Model) SerdeSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.SerdeBytesPerSec
}

// TransferSeconds returns the time to move n bytes across the network.
func (m *Model) TransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.NetworkBytesPerSec
}

// ShuffleSeconds prices an exchange operator's cross-node traffic: n
// bytes leaving their producing node over the NIC. It reuses the
// network rate (no new model field, so lineage fingerprints are
// unchanged); the name exists so shuffle cost is attributable at call
// sites and recalibratable in one place if shuffles ever diverge from
// point-to-point transfers.
func (m *Model) ShuffleSeconds(crossBytes int64) float64 {
	return m.TransferSeconds(crossBytes)
}

// PutSeconds returns the time to store n bytes in the object store.
// spilled indicates the object exceeded the store's memory budget and
// took the disk path.
func (m *Model) PutSeconds(bytes int64, spilled bool) float64 {
	if bytes <= 0 {
		return 0
	}
	rate := m.ObjectStorePutBytesPerSec
	if spilled {
		rate = m.SpillBytesPerSec
	}
	return float64(bytes) / rate
}

// GetSeconds returns the time to fetch n bytes from the object store.
func (m *Model) GetSeconds(bytes int64, spilled bool) float64 {
	if bytes <= 0 {
		return 0
	}
	rate := m.ObjectStoreGetBytesPerSec
	if spilled {
		rate = m.SpillBytesPerSec
	}
	return float64(bytes) / rate
}

// CheckpointPutSeconds returns the time to write n bytes of operator
// state to the checkpoint store.
func (m *Model) CheckpointPutSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.CheckpointPutBytesPerSec
}

// CheckpointGetSeconds returns the time to read n bytes of checkpoint
// state back during recovery.
func (m *Model) CheckpointGetSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.CheckpointGetBytesPerSec
}

// TorchSpeedup returns the effective parallel speedup of a framework
// forward/backward pass allowed to use cores threads, following a
// diminishing-returns curve (Amdahl with a 12% serial fraction, which
// matches typical CPU-inference scaling).
func TorchSpeedup(cores int) float64 {
	if cores <= 1 {
		return 1
	}
	const serial = 0.12
	return 1 / (serial + (1-serial)/float64(cores))
}
