package pipeline_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/notebook"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// TestNotebookCellsRerun holds every task's notebook to RunCell's
// contract, that cells may be run multiple times: after a full run,
// re-running the cells from any one onward leaves the output digest
// unchanged — a cell builds its outputs afresh instead of appending to
// what an earlier run left behind, and a cell that puts an object into
// the Ray store (KGE's and GOTTA's load_model) replaces it.
func TestNotebookCellsRerun(t *testing.T) {
	cfg, err := core.RunConfig{Workers: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		size int
	}{
		{"dice", 20},
		{"wef", 40},
		{"gotta", 4},
		{"kge", 680},
	} {
		task, err := core.NewTask(tc.name, tc.size, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := task.(pipeline.Declaration)
		digest := func(decl pipeline.NotebookDecl) string {
			t.Helper()
			out, _, err := decl.Output()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return fmt.Sprintf("%016x (%d rows)", relation.Digest(out), out.Len())
		}
		cells := len(d.Notebook(pipeline.NewEnv(cfg, tc.name)).Cells)
		for from := 0; from < cells; from++ {
			decl := d.Notebook(pipeline.NewEnv(cfg, tc.name))
			nb := notebook.New(tc.name, cfg.Model)
			for _, c := range decl.Cells {
				nb.Add(c)
			}
			if err := nb.RunAll(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want := digest(decl)
			name := decl.Cells[from].Name
			var rerr error
			for i := from; i < len(decl.Cells) && rerr == nil; i++ {
				rerr = nb.RunCell(i)
			}
			if rerr != nil {
				t.Errorf("%s: re-run from %s: %v", tc.name, name, rerr)
				continue
			}
			if got := digest(decl); got != want {
				t.Errorf("%s: re-run from %s: output %s, first run %s", tc.name, name, got, want)
			}
		}
	}
}
