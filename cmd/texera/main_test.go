package main

import (
	"bytes"
	"strings"
	"testing"
)

// texera drives the command in-process, exactly as main does.
func texera(args ...string) (stdout, stderr string, exit int) {
	var out, errOut bytes.Buffer
	exit = run(args, &out, &errOut)
	return out.String(), errOut.String(), exit
}

func TestValidSpecPrintsItsSink(t *testing.T) {
	stdout, stderr, exit := texera("-spec", "testdata/orders.json", "-progress=false")
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	for _, want := range []string{
		`sink "out" (2 rows, schema: city:string, orders:int, total:float)`,
		"| la   | 1      | 12    |",
		"| sf   | 4      | 91    |",
		"simulated cluster execution time:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

func TestRefusedSpecNamesTheRule(t *testing.T) {
	stdout, stderr, exit := texera("-spec", "testdata/parallel-sort.json", "-progress=false")
	if exit != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", exit, stdout, stderr)
	}
	if !strings.Contains(stderr, `WF006: node "ranked"`) {
		t.Fatalf("stderr does not name WF006 on the sort: %s", stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"-no-such-flag"}} {
		if _, _, exit := texera(args...); exit != 2 {
			t.Errorf("texera %v: exit %d, want 2", args, exit)
		}
	}
}
