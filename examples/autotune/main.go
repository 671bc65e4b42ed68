// Autotune: the engine-side resource tuning of the paper's Aspect #2.
// A skewed three-stage pipeline is profiled once at one worker per
// operator; the tuner then allocates a CPU budget across the operators
// on the simulator, and the workflow is re-run with the recommended
// parallelism to confirm the speedup — the burden the script paradigm
// leaves to the user ("manually search for an optimal configuration").
//
// Run with: go run ./examples/autotune [-budget 12]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/relation"
)

func buildPipeline(workers map[string]int) *dataflow.Workflow {
	schema := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
	)
	in := relation.NewTable(schema)
	for i := 0; i < 30000; i++ {
		in.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue("a short synthetic document")})
	}

	w := dataflow.New("autotune-demo")
	src := w.Source("docs", in)
	prev := src
	// Three stages with very different per-tuple costs: tokenize is
	// cheap, embed is the bottleneck, score is moderate.
	stages := []struct {
		name string
		work cost.Work
	}{
		{"tokenize", cost.Work{Interp: 0.5e-3}},
		{"embed", cost.Work{Interp: 8e-3, Mem: 1e-3}},
		{"score", cost.Work{Interp: 2e-3}},
	}
	for _, s := range stages {
		op := dataflow.NewMap(s.name, cost.Python, schema, func(r relation.Tuple, out *dataflow.Rows) error {
			out.Emit(r...)
			return nil
		})
		op.Work = s.work
		par := 1
		if workers != nil {
			par = workers[s.name]
		}
		id := w.Op(op, dataflow.WithParallelism(par))
		w.Connect(prev, id, 0, dataflow.RoundRobin())
		prev = id
	}
	w.Connect(prev, w.Sink("out"), 0, dataflow.RoundRobin())
	return w
}

func main() {
	budget := flag.Int("budget", 12, "total worker budget for the tuner")
	flag.Parse()

	// 1. Profile at one worker per operator.
	profile, err := buildPipeline(nil).Run(context.Background(), dataflow.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled baseline: %.2f simulated s\n\n", profile.SimSeconds)

	// 2. Tune on the simulator.
	tuned, err := dataflow.AutoTune(profile.Trace, cost.Default(), *budget)
	if err != nil {
		log.Fatal(err)
	}
	workers := map[string]int{}
	fmt.Printf("tuner recommendation (budget %d):\n", *budget)
	for _, n := range profile.Trace.Nodes {
		if n.Kind != "operator" {
			continue
		}
		workers[n.Name] = tuned.Workers[n.ID]
		fmt.Printf("  %-10s -> %d workers\n", n.Name, tuned.Workers[n.ID])
	}
	fmt.Printf("tuner estimate: %.2f simulated s\n\n", tuned.Seconds)

	// 3. Re-run for real with the recommended parallelism.
	rerun, err := buildPipeline(workers).Run(context.Background(), dataflow.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-run with recommendation: %.2f simulated s (%.1fx faster than baseline)\n",
		rerun.SimSeconds, profile.SimSeconds/rerun.SimSeconds)
	fmt.Println("\noperator timeline after tuning:")
	spans, err := dataflow.Timeline(rerun.Trace, cost.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(dataflow.RenderTimeline(spans, 56))
}
