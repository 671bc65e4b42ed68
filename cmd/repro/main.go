// Command repro runs the reproduction's experiment suite — every table
// and figure of the paper's evaluation — and the long-running
// multi-tenant workflow service in front of the same engines.
//
// Every mode is a subcommand with its own flags: `repro help` prints
// the subcommand table below, `repro <subcommand> -h` that subcommand's
// flags, and bare `repro` is `repro experiment all`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// command is one repro subcommand. run builds its own FlagSet, so a
// flag the subcommand does not read is a usage error, not a no-op.
type command struct {
	name string
	// arg is the positional argument as usage shows it: "<x>" is
	// required, "[x]" optional, "" means the subcommand takes none.
	arg      string
	synopsis string
	run      func(args []string, stdout, stderr io.Writer) int
}

// commands is the one subcommand table: dispatch, `repro help`, every
// subcommand's usage and argument handling, and the unknown-subcommand
// diagnostic read it. (Filled in init because cmdHelp reads it back.)
var commands []command

func init() {
	commands = []command{
		{"run", "[task]", "one task through the unified RunSpec (a task name, or a whole -spec)", cmdRun},
		{"serve", "[addr]", "multi-tenant workflow service and observability endpoints (default :8080)", cmdServe},
		{"explain", "<task>", "EXPLAIN-ANALYZE profile of a task's workflow", cmdExplain},
		{"validate", "", "static DAG validation of every task's plan; exit 1 on findings", cmdValidate},
		{"experiment", "[id|all]", "one table or figure of the evaluation, or all of them (IDs: repro list)", cmdExperiment},
		{"trace", "<task>", "one task, both paradigms, telemetry attached; -o writes a Chrome trace", cmdTrace},
		{"bench", "<file>", "wall-clock benchmark harness; writes its JSON report to file", cmdBench},
		{"bench-check", "", "harness counts (objects per op, simulated seconds; never wall time) vs the newest BENCH_*.json; exit 1 a count moved, 2 no baseline", cmdBenchCheck},
		{"list", "", "experiment IDs, then each task's paper-scale size", cmdList},
		{"help", "", "this table", cmdHelp},
	}
}

func (c command) usage() string {
	return strings.TrimSpace("repro " + c.name + " " + c.arg)
}

func lookup(name string) *command {
	if i := slices.IndexFunc(commands, func(c command) bool { return c.name == name }); i >= 0 {
		return &commands[i]
	}
	return nil
}

// run dispatches args to a subcommand and returns the process exit
// code: 2 for a usage error, otherwise what the subcommand reports.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{"experiment", "all"}
	}
	name := args[0]
	if c := lookup(name); c != nil {
		return c.run(args[1:], stdout, stderr)
	}
	switch bare := strings.TrimLeft(name, "-"); {
	case bare == name:
		var names []string
		for _, c := range commands {
			names = append(names, c.name)
		}
		fmt.Fprintf(stderr, "repro: unknown subcommand %q (want %s)\n", name, strings.Join(names, ", "))
	case bare == "h" || bare == "help":
		return cmdHelp(nil, stdout, stderr)
	case lookup(bare) != nil:
		fmt.Fprintf(stderr, "repro: the %s flag is gone: modes are subcommands, use `repro %s`\n", name, bare)
	default:
		fmt.Fprintf(stderr, "repro: %s before a subcommand: flags follow one (bare `repro -scale 10` is `repro experiment all -scale 10`); see `repro help`\n", name)
	}
	return 2
}

func cmdHelp(args []string, stdout, stderr io.Writer) int {
	if _, exit, ok := parse(newFlagSet("help", stderr), args); !ok {
		return exit
	}
	fmt.Fprint(stdout, "usage: repro <subcommand> [argument] [flags]\n\n")
	for _, c := range commands {
		fmt.Fprintf(stdout, "  %-26s %s\n", c.usage(), c.synopsis)
	}
	fmt.Fprint(stdout, "\nBare `repro` is `repro experiment all`. `repro <subcommand> -h` prints that subcommand's flags.\n")
	return 0
}

// newFlagSet returns the named subcommand's empty FlagSet. Its usage —
// printed to stderr on -h and after a flag error — is that subcommand's
// table entry and flags, nothing else.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		c := lookup(name)
		fmt.Fprintf(stderr, "usage: %s [flags]\n  %s\n", c.usage(), c.synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parse takes the subcommand's positional argument off the front of
// args — before the flags, because the flag package stops at the first
// non-flag — parses the rest into fs and refuses leftovers. When it
// fails the diagnostic is already on stderr and exit is the code to
// return: 0 after -h, 2 after a usage error.
func parse(fs *flag.FlagSet, args []string) (arg string, exit int, ok bool) {
	c := lookup(fs.Name())
	if c.arg != "" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		arg, args = args[0], args[1:]
	}
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return "", 0, false
	case err != nil:
		return "", 2, false
	case fs.NArg() > 0:
		fmt.Fprintf(fs.Output(), "repro %s: unexpected argument %q\n", c.name, fs.Arg(0))
		fs.Usage()
		return "", 2, false
	case arg == "" && strings.HasPrefix(c.arg, "<"):
		fmt.Fprintf(fs.Output(), "repro %s: missing %s (usage: %s [flags])\n", c.name, c.arg, c.usage())
		return "", 2, false
	}
	return arg, 0, true
}

// exitCode reports a subcommand's runtime error, if any, and returns
// its exit code.
func exitCode(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, err)
	return 1
}

// writeJSON is the -json output shape of every subcommand.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// scaledSize is a task's paper-scale default size divided by -scale,
// never below one.
func scaledSize(task string, scale int) (int, error) {
	size, err := core.TaskDefaultSize(task)
	if err != nil {
		return 0, err
	}
	return max(size/max(scale, 1), 1), nil
}
