// DICE pipeline: the paper's data-wrangling task end to end. Generates
// MACCROBAT-style clinical cases, runs the DICE wrangling under both
// paradigms, verifies they produce the same MACCROBAT-EE records, and
// prints the first few linked records plus the measured comparison.
//
// Run with: go run ./examples/dice_pipeline [-pairs 50] [-workers 2]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/tasks/dice"
)

func main() {
	pairs := flag.Int("pairs", 50, "number of text/annotation pairs")
	workers := flag.Int("workers", 1, "parallelism for both paradigms")
	flag.Parse()

	task, err := dice.New(dice.Params{Pairs: *pairs, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	script, workflow, err := core.RunBoth(task, core.MustRunConfig(core.WithWorkers(*workers)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("MACCROBAT-EE records: %d (paradigms agree: %v)\n\n",
		script.Output.Len(), script.Output.Equal(workflow.Output))
	for i := 0; i < script.Output.Len() && i < 5; i++ {
		r := script.Output.Row(i)
		fmt.Printf("%s %s [%s]\n  trigger: %q  theme: %q\n  sentence: %q\n",
			r[0].Str(), r[1].Str(), r[2].Str(), r[3].Str(), r[4].Str(), r[5].Str())
	}

	fmt.Printf("\n%-10s %12s %8s %6s\n", "paradigm", "sim time (s)", "LoC", "ops")
	for _, r := range []*struct {
		name string
		res  *core.Result
	}{{"script", script}, {"workflow", workflow}} {
		fmt.Printf("%-10s %12.2f %8d %6d\n", r.name, r.res.SimSeconds, r.res.LinesOfCode, r.res.Operators)
	}
	fmt.Printf("\nworkflow speedup over script: %.2fx (pipelined execution)\n",
		workflow.SpeedupOver(script))
}
