// KGE recommendation: the paper's multi-step inference task. Builds a
// synthetic product world with a pre-trained TransE embedding model,
// produces top-10 recommendations for a user under both paradigms, and
// shows the Table I effect: swapping the workflow's Python join
// operator for nine native Scala operators.
//
// Run with: go run ./examples/kge_recommend [-products 6800]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/tasks/kge"
)

func main() {
	products := flag.Int("products", 6800, "candidate product count")
	flag.Parse()

	task, err := kge.New(kge.Params{Products: *products, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}

	script, workflow, err := core.RunBoth(task, core.MustRunConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("top-10 recommendations for %s-category shopper (paradigms agree: %v):\n",
		task.World().UserCategory[task.World().Users[0]], script.Output.Equal(workflow.Output))
	for _, r := range script.Output.Rows() {
		fmt.Printf("  #%-2d %-12s %-24s dist=%.3f\n",
			r[0].Int(), r[1].Str(), r[2].Str(), r[3].Float())
	}
	fmt.Printf("in-category hit rate: %.0f%%\n\n", 100*script.Quality["hit_rate"])

	fmt.Printf("%-22s %12s\n", "implementation", "sim time (s)")
	fmt.Printf("%-22s %12.2f\n", "script (pandas+ray)", script.SimSeconds)
	fmt.Printf("%-22s %12.2f\n", "workflow (3 py ops)", workflow.SimSeconds)

	// Table I: the Scala join variant.
	scalaTask, err := kge.New(kge.Params{Products: *products, Seed: 9, Variant: kge.Variant{Ops: 3, ScalaJoin: true}})
	if err != nil {
		log.Fatal(err)
	}
	scala, err := scalaTask.Run(core.Workflow, core.MustRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %12.2f   (join as 9 native Scala operators, %d ops total)\n",
		"workflow (scala join)", scala.SimSeconds, scala.Operators)
	fmt.Printf("\nScala join speedup over Python join: %.1f%%\n",
		100*(workflow.SimSeconds-scala.SimSeconds)/workflow.SimSeconds)
}
