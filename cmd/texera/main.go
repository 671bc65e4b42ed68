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
// See examples/quickstart for a spec that can be written to disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/report"
)

func main() {
	var (
		specPath = flag.String("spec", "", "path to the workflow JSON spec")
		progress = flag.Bool("progress", true, "print operator progress while running")
		limit    = flag.Int("limit", 20, "max result rows to print per sink")
		timeline = flag.Bool("timeline", false, "render a Gantt view of the simulated schedule")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "texera: -spec is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	spec, err := dataflow.ParseSpec(data)
	if err != nil {
		fatal(err)
	}
	w, err := dataflow.Build(spec)
	if err != nil {
		fatal(err)
	}
	ex, err := w.Start(context.Background(), dataflow.Config{})
	if err != nil {
		fatal(err)
	}
	done := make(chan struct{})
	var res *dataflow.Result
	var runErr error
	go func() {
		res, runErr = ex.Wait()
		close(done)
	}()
	if *progress {
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
	loop:
		for {
			select {
			case <-done:
				break loop
			case <-ticker.C:
				printProgress(ex)
			}
		}
	} else {
		<-done
	}
	if runErr != nil {
		fatal(runErr)
	}
	printProgress(ex)

	sinkNames := make([]string, 0, len(res.Tables))
	for name := range res.Tables {
		sinkNames = append(sinkNames, name)
	}
	sort.Strings(sinkNames)
	for _, name := range sinkNames {
		tbl := res.Tables[name]
		fmt.Printf("\nsink %q (%d rows, schema: %s):\n", name, tbl.Len(), tbl.Schema())
		rows := [][]string{}
		header := []string{}
		for i := 0; i < tbl.Schema().Len(); i++ {
			header = append(header, tbl.Schema().Field(i).Name)
		}
		rows = append(rows, header)
		for i := 0; i < tbl.Len() && i < *limit; i++ {
			row := []string{}
			for _, v := range tbl.Row(i) {
				row = append(row, v.String())
			}
			rows = append(rows, row)
		}
		report.Table(os.Stdout, rows)
		if tbl.Len() > *limit {
			fmt.Printf("... %d more rows\n", tbl.Len()-*limit)
		}
	}
	fmt.Printf("\nsimulated cluster execution time: %.3f s\n", res.SimSeconds)
	if *timeline {
		spans, err := dataflow.Timeline(res.Trace, cost.Default())
		if err != nil {
			fatal(err)
		}
		fmt.Println("\noperator timeline (simulated):")
		fmt.Print(dataflow.RenderTimeline(spans, 60))
	}
}

func printProgress(ex *dataflow.Execution) {
	fmt.Println("operators:")
	for _, p := range ex.Progress() {
		fmt.Printf("  %-24s %-12s in=%-8d out=%-8d workers=%d\n",
			p.Name, p.State, p.InTuples, p.OutTuples, p.Workers)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "texera:", err)
	os.Exit(1)
}
