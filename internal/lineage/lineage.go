// Package lineage is a content-addressed, versioned artifact store with
// provenance-driven incremental re-execution — the mechanism behind the
// "iterate" workload. Every operator or notebook cell is identified by
// a deterministic fingerprint covering its identity, its parameters,
// the cost-model version, and the digests of its upstream artifacts
// (Pachyderm-style provenance with early cutoff: once an upstream is a
// hit, its output *digest* feeds the downstream fingerprint, so an edit
// whose recomputed output is bit-identical stops dirtying the DAG at
// that point). Materialized outputs are committed to a versioned repo
// backed by the simulated object store, with puts, gets, eviction and
// pinning all priced through the cost model.
//
// The two paradigms reuse at different granularities, faithfully to the
// paper: the workflow engine caches per operator and feeds cached
// results straight into downstream ports, while the script paradigm
// caches per cell under stateful-kernel semantics — an edited cell
// invalidates itself and every cell after it in cell order, even when
// the later cells are dataflow-independent of the edit.
//
// A Store is not safe for concurrent use; the executors consult it only
// from their single-threaded plan and finish phases.
package lineage

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/objstore"
	"repro/internal/relation"
	"repro/internal/telemetry"
)

// Fingerprint is the content address of one unit's output: a hash of
// the unit's identity, parameters, cost-model version and upstream
// provenance.
type Fingerprint uint64

// Hasher accumulates fingerprint components with FNV-1a, the same
// function relation.Digest uses, so table digests and identity strings
// mix consistently.
type Hasher struct{ h uint64 }

// NewHasher starts a fingerprint computation.
func NewHasher() *Hasher { return &Hasher{h: relation.FNVOffset64} }

// String folds a string component (length-prefixed via a separator so
// adjacent fields cannot alias).
func (h *Hasher) String(s string) *Hasher {
	h.h = relation.FNVMixUint64(h.h, uint64(len(s)))
	h.h = relation.FNVMixString(h.h, s)
	return h
}

// Uint64 folds a 64-bit component.
func (h *Hasher) Uint64(v uint64) *Hasher {
	h.h = relation.FNVMixUint64(h.h, v)
	return h
}

// Int folds an integer component.
func (h *Hasher) Int(v int) *Hasher { return h.Uint64(uint64(int64(v))) }

// Sum returns the accumulated fingerprint.
func (h *Hasher) Sum() Fingerprint { return Fingerprint(h.h) }

// Artifact is one committed, versioned output.
type Artifact struct {
	// Key is the stable unit name ("node:parse-annotations",
	// "cell:2:wrangle_chunks"); successive versions of a unit share it.
	Key string
	// FP is the content address this version was committed under.
	FP Fingerprint
	// Digest is relation.Digest of the materialized table (0 for
	// metadata-only artifacts).
	Digest uint64
	// Table is the materialized output; nil for metadata-only commits
	// (script cells publish results through kernel state, not tables).
	Table *relation.Table
	// Bytes is the encoded size priced through the object store.
	Bytes int64
	// Seconds is the simulated compute time the producing run spent on
	// this unit — what a cache hit saves.
	Seconds float64
}

// DefaultCapacity is the artifact repo's object-store budget.
const DefaultCapacity int64 = 512 << 20

// Stats aggregates store-lifetime activity across runs.
type Stats struct {
	Hits          int
	Misses        int
	Commits       int
	Invalidations int
	HitBytes      int64
	CommitBytes   int64
}

// Store is the versioned artifact repo. One Store spans many runs of
// (both paradigms of) one task; fingerprints keep the paradigms'
// entries from colliding because scope is part of every fingerprint.
type Store struct {
	model *cost.Model
	obj   *objstore.Store
	arts  map[Fingerprint]*Artifact
	// last maps a unit key to the fingerprint of its latest version,
	// so a miss can be classified as an invalidation (the unit existed,
	// its inputs changed) rather than first contact.
	last   map[string]Fingerprint
	seen   map[string]bool // scopes that have completed a run
	pinned []objstore.ID   // pins held for the current run
	stats  Stats
}

// NewStore creates a store backed by an object-store budget of
// capacity bytes (DefaultCapacity if <= 0). A nil model uses
// cost.Default().
func NewStore(model *cost.Model, capacity int64) (*Store, error) {
	if model == nil {
		model = cost.Default()
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	obj, err := objstore.New(model, capacity)
	if err != nil {
		return nil, err
	}
	return &Store{
		model: model,
		obj:   obj,
		arts:  make(map[Fingerprint]*Artifact),
		last:  make(map[string]Fingerprint),
		seen:  make(map[string]bool),
	}, nil
}

// Model returns the store's cost model.
func (s *Store) Model() *cost.Model { return s.model }

// Stats returns a copy of the lifetime counters.
func (s *Store) Stats() Stats { return s.stats }

// RunReport summarizes one run's interaction with the store.
type RunReport struct {
	// Scope identifies the run ("workflow:dice[...]", "script:kge[...]").
	Scope string
	// Units is the number of cacheable units the run planned over
	// (workflow nodes or notebook cells).
	Units int
	// Reused is the number of units served from the store.
	Reused int
	// Warm reports whether the scope had completed a run before, i.e.
	// whether start-up overhead was already paid.
	Warm          bool
	Hits          int
	Misses        int
	Commits       int
	Invalidations int
	// HitBytes is the artifact bytes fetched instead of recomputed.
	HitBytes int64
	// CommitBytes is the artifact bytes newly committed.
	CommitBytes int64
	// FetchSeconds and CommitSeconds are the simulated store taxes the
	// run paid; ReusedSeconds is the producing runs' compute time the
	// hits avoided re-spending.
	FetchSeconds  float64
	CommitSeconds float64
	ReusedSeconds float64
}

// Run is one executor's handle on the store for a single execution.
type Run struct {
	s     *Store
	rec   *telemetry.Recorder
	proc  string
	virt  float64 // run-local virtual cursor for span placement
	rep   RunReport
	begun bool
}

// Begin opens a run in the given scope. Pins held for the previous run
// are released first (a new iteration may evict the old one's
// artifacts if the budget demands it, but never its own). rec may be
// nil for an uninstrumented run.
func (s *Store) Begin(scope string, rec *telemetry.Recorder) *Run {
	for _, id := range s.pinned {
		// Unpin can only fail for missing IDs, which we put ourselves.
		_ = s.obj.Unpin(id) //lint:allow errdrop best-effort unpin of ids this store put itself
	}
	s.pinned = s.pinned[:0]
	r := &Run{
		s:    s,
		rec:  rec,
		proc: "lineage:" + scope,
		rep:  RunReport{Scope: scope, Warm: s.seen[scope]},
	}
	s.seen[scope] = true
	r.begun = true
	return r
}

// SetUnits records how many cacheable units the run plans over.
func (r *Run) SetUnits(n int) { r.rep.Units = n }

// Lookup consults the store for key at fingerprint fp. A miss on a key
// the store has seen before counts as an invalidation: the unit's
// provenance changed.
func (r *Run) Lookup(key string, fp Fingerprint) *Artifact {
	if a, ok := r.s.arts[fp]; ok {
		r.s.stats.Hits++
		r.rep.Hits++
		r.rep.Reused++
		r.rep.ReusedSeconds += a.Seconds
		r.count("hits", 1)
		return a
	}
	r.s.stats.Misses++
	r.rep.Misses++
	r.count("misses", 1)
	if prev, ok := r.s.last[key]; ok && prev != fp {
		r.s.stats.Invalidations++
		r.rep.Invalidations++
		r.count("invalidations", 1)
		r.span("invalidate:"+key, "invalidate", 0)
	}
	return nil
}

// Fetch prices reading a hit artifact out of the repo, pinning it for
// the remainder of the run. Metadata-only artifacts are free.
func (r *Run) Fetch(a *Artifact) float64 {
	if a.Bytes <= 0 {
		r.span("hit:"+a.Key, "hit", 0)
		return 0
	}
	id := artifactID(a.Key, a.FP)
	secs, err := r.s.obj.Get(id)
	if err != nil {
		// The artifact map and the object store are updated together;
		// a missing object means the store was corrupted externally.
		panic(fmt.Sprintf("lineage: artifact %s lost from object store: %v", id, err))
	}
	r.pin(id)
	r.rep.HitBytes += a.Bytes
	r.s.stats.HitBytes += a.Bytes
	r.rep.FetchSeconds += secs
	r.count("hit_bytes", a.Bytes)
	r.span("hit:"+a.Key, "hit", secs)
	return secs
}

// MissDownstream records a unit that must re-run because its
// provenance cannot be resolved against the store — an upstream is
// itself being recomputed. It counts as a miss without an invalidation
// event: only the frontier unit whose own provenance diverged records
// the invalidation.
func (r *Run) MissDownstream() {
	r.s.stats.Misses++
	r.rep.Misses++
	r.count("misses", 1)
}

// Commit materializes table as the new version of key under fp,
// returning the stored artifact and the simulated seconds the priced
// object-store put took. seconds is the compute time the producing run
// spent on the unit (what a future hit will save). Committing a
// fingerprint that is already present returns the existing version for
// free — re-deriving identical provenance yields the same artifact.
func (r *Run) Commit(key string, fp Fingerprint, table *relation.Table, seconds float64) (*Artifact, float64) {
	if a, ok := r.s.arts[fp]; ok {
		return a, 0
	}
	a := &Artifact{
		Key: key, FP: fp,
		Digest:  relation.Digest(table),
		Table:   table,
		Bytes:   relation.TableBytes(table),
		Seconds: seconds,
	}
	id := artifactID(key, fp)
	secs, err := r.s.obj.Put(id, a.Bytes)
	if err != nil {
		panic(fmt.Sprintf("lineage: commit %s: %v", id, err))
	}
	r.pin(id)
	r.record(a, secs)
	return a, secs
}

// CommitMeta commits a metadata-only version of key: the unit's result
// lives in kernel state rather than a table, so only its provenance and
// compute time are recorded. Script cells use this; their hits cost
// nothing to fetch and carry no bytes — which is exactly the coarser
// currency of the script paradigm's reuse.
func (r *Run) CommitMeta(key string, fp Fingerprint, seconds float64) {
	if _, ok := r.s.arts[fp]; ok {
		return
	}
	r.record(&Artifact{Key: key, FP: fp, Seconds: seconds}, 0)
}

func (r *Run) record(a *Artifact, putSecs float64) {
	r.s.arts[a.FP] = a
	r.s.last[a.Key] = a.FP
	r.s.stats.Commits++
	r.s.stats.CommitBytes += a.Bytes
	r.rep.Commits++
	r.rep.CommitBytes += a.Bytes
	r.rep.CommitSeconds += putSecs
	r.count("commits", 1)
	if a.Bytes > 0 {
		r.count("commit_bytes", a.Bytes)
	}
	r.span("commit:"+a.Key, "commit", putSecs)
}

func (r *Run) pin(id objstore.ID) {
	if err := r.s.obj.Pin(id); err == nil {
		r.s.pinned = append(r.s.pinned, id)
	}
}

// Report returns the run's summary.
func (r *Run) Report() *RunReport {
	rep := r.rep
	return &rep
}

func (r *Run) count(name string, v int64) {
	if r.rec == nil {
		return
	}
	r.rec.Metrics.Counter("lineage." + r.rep.Scope + "." + name).Add(v)
}

// span emits one store event on the run's lineage track. Store events
// have no placement on the executor's simulated timeline (fetch and
// commit taxes are folded into node/cell charges), so spans advance a
// run-local virtual cursor instead: ordering and durations are
// meaningful, absolute placement is not.
func (r *Run) span(name, cat string, secs float64) {
	if r.rec == nil {
		return
	}
	dur := secs
	if dur <= 0 {
		dur = 1e-6 // zero-cost events still need visible extent
	}
	r.rec.Record(telemetry.Span{
		Proc: r.proc, Track: "store",
		Name: name, Cat: "lineage-" + cat,
		HasVirt: true,
		Virtual: telemetry.Virt{Start: r.virt, Dur: dur},
	})
	r.virt += dur
}

func artifactID(key string, fp Fingerprint) objstore.ID {
	return objstore.ID(fmt.Sprintf("%s/%016x", key, uint64(fp)))
}
