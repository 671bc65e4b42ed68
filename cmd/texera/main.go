// Command texera executes a workflow described in JSON on the
// GUI-workflow engine, streaming per-operator progress (state and
// tuple counts) the way the Texera interface does, and printing each
// sink's result plus the simulated cluster execution time.
//
// Usage:
//
//	texera -spec workflow.json
//	texera -spec workflow.json -progress=false -limit 5
//
// cmd/texera/testdata/orders.json is a spec to start from. A plan the
// checker refuses exits 1 naming the rule (WF001–WF006).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, executes the spec and returns
// the exit code (2 for usage errors, 1 for a spec that fails).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("texera", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "path to the workflow JSON spec")
		progress = fs.Bool("progress", true, "print operator progress while running")
		limit    = fs.Int("limit", 20, "max result rows to print per sink")
		timeline = fs.Bool("timeline", false, "render a Gantt view of the simulated schedule")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath == "" {
		fmt.Fprintln(stderr, "texera: -spec is required")
		return 2
	}
	if err := execute(*specPath, *progress, *limit, *timeline, stdout); err != nil {
		fmt.Fprintln(stderr, "texera:", err)
		return 1
	}
	return 0
}

func execute(specPath string, progress bool, limit int, timeline bool, stdout io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	spec, err := dataflow.ParseSpec(data)
	if err != nil {
		return err
	}
	w, err := dataflow.Build(spec)
	if err != nil {
		return err
	}
	ex, err := w.Start(context.Background(), dataflow.Config{})
	if err != nil {
		return err
	}
	done := make(chan struct{})
	var res *dataflow.Result
	var runErr error
	go func() {
		res, runErr = ex.Wait()
		close(done)
	}()
	if progress {
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
	loop:
		for {
			select {
			case <-done:
				break loop
			case <-ticker.C:
				printProgress(stdout, ex)
			}
		}
	} else {
		<-done
	}
	if runErr != nil {
		return runErr
	}
	printProgress(stdout, ex)

	sinkNames := make([]string, 0, len(res.Tables))
	for name := range res.Tables {
		sinkNames = append(sinkNames, name)
	}
	sort.Strings(sinkNames)
	for _, name := range sinkNames {
		tbl := res.Tables[name]
		fmt.Fprintf(stdout, "\nsink %q (%d rows, schema: %s):\n", name, tbl.Len(), tbl.Schema())
		rows := [][]string{}
		header := []string{}
		for i := 0; i < tbl.Schema().Len(); i++ {
			header = append(header, tbl.Schema().Field(i).Name)
		}
		rows = append(rows, header)
		for i := 0; i < tbl.Len() && i < limit; i++ {
			row := []string{}
			for _, v := range tbl.Row(i) {
				row = append(row, v.String())
			}
			rows = append(rows, row)
		}
		report.Table(stdout, rows)
		if tbl.Len() > limit {
			fmt.Fprintf(stdout, "... %d more rows\n", tbl.Len()-limit)
		}
	}
	fmt.Fprintf(stdout, "\nsimulated cluster execution time: %.3f s\n", res.SimSeconds)
	if timeline {
		spans, err := dataflow.Timeline(res.Trace, cost.Default())
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\noperator timeline (simulated):")
		fmt.Fprint(stdout, dataflow.RenderTimeline(spans, 60))
	}
	return nil
}

func printProgress(stdout io.Writer, ex *dataflow.Execution) {
	fmt.Fprintln(stdout, "operators:")
	for _, p := range ex.Progress() {
		fmt.Fprintf(stdout, "  %-24s %-12s in=%-8d out=%-8d workers=%d\n",
			p.Name, p.State, p.InTuples, p.OutTuples, p.Workers)
	}
}
