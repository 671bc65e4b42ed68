// Command benchmark is the repository's wall-clock ruler. It drives the
// system through its public entry points only — core.RunSpec, Task.Run,
// relation.Digest, the obs HTTP server — on four workloads, checks every
// output digest against a plain direct run, and reports end-to-end
// metrics from an untraced window and per-layer metrics from a separate
// traced phase. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"

	"repro/internal/telemetry"
)

// Phase selectors for -trace.
const (
	traceOff  = 0  // untraced window only: the end-to-end metrics
	traceOn   = 1  // traced phase only: the per-layer metrics
	traceBoth = -1 // window, then traced phase
)

const (
	warmupOps = 3
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps = 3
	// minWindowOps and minTracedOps keep a timed phase from ending with
	// too few samples on a slow box.
	minWindowOps = 10
	minTracedOps = 20
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	ops      int
	trace    int
	smoke    bool
	out      string
	traceOut string
}

// env is the part of the host a timing depends on; -compare refuses to
// compare across differing envs.
type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func currentEnv() env {
	return env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// outcome is the one-object summary the benchmark contract reads from
// the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	outcome
	Name string `json:"name"`
	// Clients is the number of closed-loop clients; with one, the
	// workload is deterministic and its exact counts must repeat.
	Clients   int     `json:"clients"`
	FailPct   float64 `json:"fail_pct"`
	Samples   int     `json:"samples"`
	TracedOps int     `json:"traced_ops"`
}

// report is the result file -out writes and -compare reads.
type report struct {
	Env       env              `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Ops       int              `json:"ops,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&opt.seed, "seed", 1, "dataset seed and spec order")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of each measured phase")
	fs.IntVar(&opt.ops, "ops", 0, "run exactly this many ops per phase instead of -seconds")
	fs.IntVar(&opt.trace, "trace", traceBoth, "0: untraced window only, 1: traced phase only (default: both)")
	fs.BoolVar(&opt.smoke, "smoke", false, "3 window ops and 1 traced op per workload, no warm-up, one set-up: checks the plumbing, not the numbers")
	fs.StringVar(&opt.out, "out", "", "write the result JSON to this file")
	fs.StringVar(&opt.traceOut, "trace-out", "", "write the benchmark's spans to this file as Chrome trace-event JSON")
	cmp := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || opt.trace < traceBoth || opt.trace > traceOn || opt.seconds <= 0 || opt.ops < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	defs := workloads
	if opt.workload != "" {
		def, ok := findWorkload(opt.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", opt.workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(stderr, "benchmark: warning: GOMAXPROCS < 2 — worker-parallel paths and the two serve clients measure nothing parallel")
	}

	rep := report{Env: currentEnv(), Seed: opt.seed, Seconds: opt.seconds, Ops: opt.ops}
	tr := newTracer()
	code := 0
	for _, def := range defs {
		res, failures, err := runWorkload(def, opt, tr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.Name, err)
			return 1
		}
		for i, f := range failures {
			if i == 5 {
				fmt.Fprintf(stderr, "benchmark: %s: … and %d more failed ops\n", def.Name, len(failures)-i)
				break
			}
			fmt.Fprintf(stderr, "benchmark: %s: failed op: %v\n", def.Name, f)
		}
		if !res.Correct {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(stdout, res)
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, rep); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if opt.traceOut != "" {
		if err := writeChromeTrace(opt.traceOut, tr.spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// runWorkload sets the workload up, runs the phases -trace selects and
// gathers every metric of those phases.
func runWorkload(def workloadDef, opt options, tr *tracer) (workloadResult, []error, error) {
	warm, reps := warmupOps, setupReps
	window := budget{ops: opt.ops, seconds: opt.seconds, min: minWindowOps}
	traced := budget{ops: opt.ops, seconds: opt.seconds, min: minTracedOps}
	if opt.smoke {
		warm, reps = 0, 1
		window.ops, traced.ops = 3, 1
	}

	// Set-up is everything before the first measured op: expected
	// digests, server start, warm-up. It runs reps times from scratch
	// and the last instance is the one measured.
	var w workload
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		t0 := telemetry.WallClock()
		var err error
		if w, err = def.build(opt.seed); err != nil {
			return workloadResult{}, nil, fmt.Errorf("set-up: %w", err)
		}
		for _, s := range (&phase{w: w, name: def.Name, budget: budget{ops: warm}}).run() {
			if s.err != nil {
				w.close()
				return workloadResult{}, nil, fmt.Errorf("warm-up: %w", s.err)
			}
		}
		setups = append(setups, telemetry.WallSince(t0).Seconds())
	}
	defer w.close()

	res := workloadResult{Name: def.Name, Clients: w.clients(), outcome: outcome{Metrics: make(map[string]metricValue)}}
	var failures []error
	count := func(samples []sample, traced bool) (passed int) {
		res.Attempted += len(samples)
		for _, s := range samples {
			if s.err != nil {
				failures = append(failures, s.err)
			} else if s.traced == traced && !s.settle {
				passed++
			}
		}
		return passed
	}
	if opt.trace != traceOn {
		values, samples, err := measureWindow(w, def.Name, window, def.heapOps)
		if err != nil {
			return res, nil, err
		}
		values["setup_s"] = median(setups)
		fill(res.Metrics, endToEnd, values)
		res.Samples = count(samples, false)
	}
	if opt.trace != traceOff {
		values, samples, err := measureLayers(w, def.Name, traced, tr)
		if err != nil {
			return res, nil, err
		}
		fill(res.Metrics, perLayer, values)
		res.TracedOps = count(samples, true)
	}
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	res.FailPct = 100 * float64(res.Failed) / float64(res.Attempted)
	return res, failures, nil
}

// printWorkload prints every metric by name and unit, then — as the
// last line — the one-object summary the benchmark contract reads.
func printWorkload(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed (fail_pct %.2f %%), %d window samples, %d traced ops\n",
		res.Name, res.Attempted, res.Failed, res.FailPct, res.Samples, res.TracedOps)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				bound := ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("bound %g %%", 100*d.Bound)
				}
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.Name, m.Value, m.Unit, bound)
			}
		}
	}
	tw.Flush()
	line, err := json.Marshal(res.outcome)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
