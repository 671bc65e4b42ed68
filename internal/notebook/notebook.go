// Package notebook implements the script paradigm's execution engine —
// a stand-in for Jupyter Notebook. A notebook is an ordered list of
// cells sharing one kernel that holds named state. Cells may be run in
// any order (the paper's Figure 8 hazard), execution is counted with
// the familiar sequential counter, errors carry a cell-level synthetic
// stack trace, and each cell charges simulated time to the kernel's
// virtual clock. Scaled-out cells charge the makespan of a Ray-style
// run (see internal/raysim) instead of single-machine time.
package notebook

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/telemetry"
)

// Kernel holds the interpreter state shared by all cells: named
// variables, the execution counter, the virtual clock and the active
// call stack used to build cell-level tracebacks.
type Kernel struct {
	model     *cost.Model
	vars      map[string]any
	execCount int
	elapsed   float64
	replaying bool
	stack     []string
	errStack  []string // stack captured at the deepest failing frame
	history   []ExecutionRecord
}

// ExecutionRecord is one entry of the kernel's execution history.
type ExecutionRecord struct {
	Cell    string
	Count   int
	Seconds float64
	Err     error
}

// NewKernel starts a kernel. Starting the interpreter costs the
// model's control overhead. A nil model uses cost.Default().
func NewKernel(model *cost.Model) *Kernel {
	if model == nil {
		model = cost.Default()
	}
	return &Kernel{
		model:   model,
		vars:    make(map[string]any),
		elapsed: model.ControlOverhead,
	}
}

// Model returns the kernel's cost model.
func (k *Kernel) Model() *cost.Model { return k.model }

// Set stores a variable in the kernel namespace.
func (k *Kernel) Set(name string, v any) { k.vars[name] = v }

// Get fetches a variable; ok is false if it was never defined — the
// out-of-order execution hazard surfaces here.
func (k *Kernel) Get(name string) (any, bool) {
	v, ok := k.vars[name]
	return v, ok
}

// Need fetches a variable or returns a NameError-style failure, as
// Python would when a cell runs before the cell defining its inputs.
func (k *Kernel) Need(name string) (any, error) {
	v, ok := k.vars[name]
	if !ok {
		return nil, fmt.Errorf("NameError: name %q is not defined", name)
	}
	return v, nil
}

// Defined reports whether a variable exists.
func (k *Kernel) Defined(name string) bool {
	_, ok := k.vars[name]
	return ok
}

// Charge adds CPU work (executed in Python) to the virtual clock. A
// replaying kernel (see Notebook.ReplayCell) suppresses the charge: the
// cell's state transitions happen, its compute already did.
func (k *Kernel) Charge(w cost.Work) {
	if k.replaying {
		return
	}
	k.elapsed += w.Seconds(cost.Python)
}

// ChargeSeconds adds raw simulated seconds (for example a Ray run's
// makespan) to the virtual clock.
func (k *Kernel) ChargeSeconds(s float64) {
	if s < 0 {
		panic("notebook: negative time charge")
	}
	if k.replaying {
		return
	}
	k.elapsed += s
}

// Replaying reports whether the kernel is currently rebuilding state
// from a lineage replay rather than executing fresh work. Cells with
// side effects beyond the virtual clock (telemetry attachment, cluster
// instrumentation) consult it to stay quiet during replays.
func (k *Kernel) Replaying() bool { return k.replaying }

// MarkWarm zeroes the start-up control overhead on a kernel that has
// not yet executed a cell, modeling an iteration against an
// already-running kernel instead of a fresh interpreter launch.
func (k *Kernel) MarkWarm() {
	if k.execCount == 0 {
		k.elapsed = 0
	}
}

// Elapsed returns the simulated seconds accumulated so far.
func (k *Kernel) Elapsed() float64 { return k.elapsed }

// ExecCount returns the number of cells executed so far.
func (k *Kernel) ExecCount() int { return k.execCount }

// History returns the execution history.
func (k *Kernel) History() []ExecutionRecord {
	out := make([]ExecutionRecord, len(k.history))
	copy(out, k.history)
	return out
}

// Call runs fn under a named frame so that failures carry a synthetic
// Python-style traceback. Frames nest; the stack at the deepest failing
// frame is what the cell error reports.
func (k *Kernel) Call(frame string, fn func() error) error {
	k.stack = append(k.stack, frame)
	defer func() { k.stack = k.stack[:len(k.stack)-1] }()
	err := fn()
	if err != nil && k.errStack == nil {
		k.errStack = append([]string(nil), k.stack...)
	}
	return err
}

// Cell is one executable notebook cell. Source is the pseudo-Python
// text shown to the user; it is what the lines-of-code experiment
// counts.
type Cell struct {
	Name   string
	Source string
	Run    func(k *Kernel) error
}

// LinesOfCode counts the cell's non-blank, non-comment source lines.
func (c *Cell) LinesOfCode() int { return SourceLines(c.Source) }

// SourceLines counts the non-blank, non-comment lines of a Python
// source text — the unit of the paper's lines-of-code metric for cells
// and workflow UDF bodies alike.
func SourceLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		n++
	}
	return n
}

// CellError is a failure attributed to one cell, carrying the
// cell-level stack trace the script paradigm reports (paper Aspect #1).
type CellError struct {
	Cell      string
	ExecCount int
	Stack     []string // innermost frame last
	Err       error
}

// Error renders a compact Python-flavoured traceback.
func (e *CellError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell %q (In[%d]): ", e.Cell, e.ExecCount)
	if len(e.Stack) > 0 {
		fmt.Fprintf(&b, "in %s: ", strings.Join(e.Stack, " -> "))
	}
	b.WriteString(e.Err.Error())
	return b.String()
}

// Unwrap exposes the underlying error.
func (e *CellError) Unwrap() error { return e.Err }

// Notebook is an ordered list of cells plus their shared kernel.
type Notebook struct {
	name     string
	cells    []*Cell
	kernel   *Kernel
	rec      *telemetry.Recorder
	proc     string
	progress telemetry.ProgressSink
	progTask string
}

// SetTelemetry attaches a recorder; RunCell then emits one span per
// cell execution on the "kernel" track of process proc. Cell spans are
// genuinely dual-stamped: the kernel's virtual clock is live while the
// cell runs, so the span carries both the deterministic virtual
// interval and the volatile wall interval. A nil recorder (the
// default) keeps execution uninstrumented.
func (n *Notebook) SetTelemetry(rec *telemetry.Recorder, proc string) {
	n.rec = rec
	if proc == "" {
		proc = "script:" + n.name
	}
	n.proc = proc
}

// SetProgress attaches a live progress sink; RunCell then publishes a
// "running" event when a cell starts and a "completed"/"failed" event
// when it returns, stamped with the kernel's virtual clock. Cells are
// the coarsest progress unit a notebook surface offers — the paper's
// point that scripts expose far less of their execution than a GUI
// workflow does.
func (n *Notebook) SetProgress(sink telemetry.ProgressSink, task string) {
	n.progress = sink
	n.progTask = task
}

// New creates a notebook with a fresh kernel. A nil model uses
// cost.Default().
func New(name string, model *cost.Model) *Notebook {
	return &Notebook{name: name, kernel: NewKernel(model)}
}

// Name returns the notebook name.
func (n *Notebook) Name() string { return n.name }

// Kernel returns the shared kernel.
func (n *Notebook) Kernel() *Kernel { return n.kernel }

// Add appends a cell and returns its index.
func (n *Notebook) Add(c *Cell) int {
	n.cells = append(n.cells, c)
	return len(n.cells) - 1
}

// Cells returns the cell list.
func (n *Notebook) Cells() []*Cell { return n.cells }

// NumCells returns the number of cells.
func (n *Notebook) NumCells() int { return len(n.cells) }

// RunCell executes the i-th cell. Cells may be run in any order and
// multiple times; only kernel state links them.
func (n *Notebook) RunCell(i int) error {
	if i < 0 || i >= len(n.cells) {
		return fmt.Errorf("notebook: no cell %d", i)
	}
	c := n.cells[i]
	k := n.kernel
	k.execCount++
	k.errStack = nil
	count := k.execCount
	before := k.elapsed
	var wall0 int64
	if n.rec != nil {
		wall0 = n.rec.NowNS()
	}
	if n.progress != nil {
		n.progress.Publish(telemetry.ProgressEvent{
			Task: n.progTask, Paradigm: "script",
			Op: c.Name, Kind: "cell", State: "running",
			VirtSeconds: before,
		})
	}
	var err error
	if c.Run != nil {
		err = c.Run(k)
	}
	rec := ExecutionRecord{Cell: c.Name, Count: count, Seconds: k.elapsed - before}
	if n.rec != nil {
		wall1 := n.rec.NowNS()
		cat := "cell"
		if err != nil {
			cat = "cell-error"
		}
		n.rec.Record(telemetry.Span{
			Proc: n.proc, Track: "kernel",
			Name:    fmt.Sprintf("In[%d] %s", count, c.Name),
			Cat:     cat,
			HasVirt: true,
			Virtual: telemetry.Virt{Start: before, Dur: k.elapsed - before},
			HasWall: true,
			Clock:   telemetry.Wall{StartNS: wall0, DurNS: wall1 - wall0},
		})
		n.rec.Metrics.Counter("nb." + n.name + ".cells_run").Add(1)
	}
	if n.progress != nil {
		state := "completed"
		if err != nil {
			state = "failed"
		}
		n.progress.Publish(telemetry.ProgressEvent{
			Task: n.progTask, Paradigm: "script",
			Op: c.Name, Kind: "cell", State: state,
			VirtSeconds: k.elapsed,
		})
	}
	if err != nil {
		cellErr := &CellError{
			Cell:      c.Name,
			ExecCount: count,
			Stack:     k.errStack,
			Err:       err,
		}
		rec.Err = cellErr
		k.history = append(k.history, rec)
		return cellErr
	}
	k.history = append(k.history, rec)
	return nil
}

// ReplayCell re-executes the i-th cell with all time charges
// suppressed, to rebuild kernel state (variables, object-store
// contents) that downstream cells depend on when lineage has already
// certified the cell's result. It does not advance the execution
// counter, record history, or emit telemetry: from the outside the cell
// was served from cache, not run.
func (n *Notebook) ReplayCell(i int) error {
	if i < 0 || i >= len(n.cells) {
		return fmt.Errorf("notebook: no cell %d", i)
	}
	c := n.cells[i]
	k := n.kernel
	k.replaying = true
	k.errStack = nil
	defer func() { k.replaying = false }()
	var err error
	if c.Run != nil {
		err = c.Run(k)
	}
	if err != nil {
		return &CellError{Cell: c.Name, ExecCount: k.execCount, Stack: k.errStack, Err: err}
	}
	return nil
}

// RunAll executes every cell top-down, stopping at the first error.
func (n *Notebook) RunAll() error {
	for i := range n.cells {
		if err := n.RunCell(i); err != nil {
			return err
		}
	}
	return nil
}

// Restart discards all kernel state — variables, execution counter,
// history and the virtual clock — exactly like restarting a Jupyter
// kernel. The cells remain.
func (n *Notebook) Restart() {
	n.kernel = NewKernel(n.kernel.model)
}

// RestartAndRunAll is the familiar "Restart & Run All" flow: the one
// execution order that is reproducible by construction, because no
// stale kernel state can leak between runs.
func (n *Notebook) RestartAndRunAll() error {
	n.Restart()
	return n.RunAll()
}

// LinesOfCode sums the cells' source line counts — the metric of the
// paper's Figure 12a.
func (n *Notebook) LinesOfCode() int {
	total := 0
	for _, c := range n.cells {
		total += c.LinesOfCode()
	}
	return total
}

// Elapsed returns the kernel's simulated seconds.
func (n *Notebook) Elapsed() float64 { return n.kernel.Elapsed() }
