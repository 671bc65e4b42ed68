package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one compared metric.
const (
	verdictOK        = "ok"        // within the bound
	verdictImproved  = "improved"  // better than A by more than the bound
	verdictRegressed = "REGRESSED" // worse than A by more than the bound
	verdictSame      = "same"      // an exact count that repeated
	verdictDiffers   = "DIFFERS"   // an exact count that did not
	verdictInfo      = "-"         // a per-layer reading; no bound
)

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints the A-versus-B table and returns 1 when any
// metric regressed or any exact count differs, 2 when the files cannot
// be compared.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	bad, err := func() (int, error) {
		a, err := readReport(pathA)
		if err != nil {
			return 0, err
		}
		b, err := readReport(pathB)
		if err != nil {
			return 0, err
		}
		return compareReports(a, b, stdout)
	}()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metric(s) regressed or differ\n", bad)
		return 1
	}
	return 0
}

// compareReports writes one row per workload × metric present in both
// reports — A, B, B as a ratio of A, the metric's bound and a verdict —
// and counts the rows that regressed or differ. Reports taken on
// different hosts, Go versions or seeds are refused: their numbers do
// not share a base.
func compareReports(a, b report, w io.Writer) (bad int, err error) {
	if a.Env != b.Env {
		return 0, fmt.Errorf("recorded environments differ: %+v vs %+v", a.Env, b.Env)
	}
	if a.Seed != b.Seed {
		return 0, fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tB/A\tbound\tverdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		row := func(name, unit string, va, vb float64, bound, verdict string) {
			ratio := "-"
			if va != 0 {
				ratio = fmt.Sprintf("%.3fx of %.6g", vb/va, va)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", wa.Name, name, unit, va, vb, ratio, bound, verdict)
			if verdict == verdictRegressed || verdict == verdictDiffers {
				bad++
			}
		}
		failVerdict := verdictOK
		if wb.FailPct > wa.FailPct {
			failVerdict = verdictRegressed
		}
		row("fail_pct", "%", wa.FailPct, wb.FailPct, "no increase", failVerdict)
		// With one client a workload is deterministic; several clients
		// race, so their counts carry no exactness promise.
		deterministic := wa.Clients == 1 && wb.Clients == 1
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				ma, okA := wa.Metrics[d.Name]
				mb, okB := wb.Metrics[d.Name]
				if !okA || !okB {
					continue
				}
				bound, verdict := "-", verdictInfo
				switch {
				case d.Bound > 0:
					bound, verdict = fmt.Sprintf("%g %%", 100*d.Bound), boundVerdict(d, ma.Value, mb.Value)
				case d.Exact && deterministic:
					bound, verdict = "exact", verdictSame
					if !sameTo(simTolerance, ma.Value, mb.Value) {
						verdict = verdictDiffers
					}
				}
				row(d.Name, d.Unit, ma.Value, mb.Value, bound, verdict)
			}
		}
	}
	return bad, tw.Flush()
}

// boundVerdict judges b against a by the metric's direction and bound.
func boundVerdict(d metricDef, a, b float64) string {
	if a == 0 {
		return verdictInfo
	}
	worse := (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed
	case worse < -d.Bound:
		return verdictImproved
	default:
		return verdictOK
	}
}
