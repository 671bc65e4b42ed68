package lineage

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/notebook"
	"repro/internal/relation"
)

func testTable(n int) *relation.Table {
	s := relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "v", Type: relation.String},
	)
	t := relation.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue("row")})
	}
	return t
}

func TestHasherDeterministicAndSeparating(t *testing.T) {
	fp := func() Fingerprint {
		return NewHasher().String("op").Int(3).Uint64(42).Sum()
	}
	if fp() != fp() {
		t.Fatal("hasher is not deterministic")
	}
	// Length-prefixing must keep adjacent strings from aliasing.
	a := NewHasher().String("ab").String("c").Sum()
	b := NewHasher().String("a").String("bc").Sum()
	if a == b {
		t.Fatal("adjacent string components alias")
	}
	if NewHasher().Int(1).Sum() == NewHasher().Int(2).Sum() {
		t.Fatal("distinct ints collide")
	}
}

func TestLookupCommitHitAndInvalidation(t *testing.T) {
	s, err := NewStore(cost.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl := testTable(100)
	fp1 := NewHasher().String("v1").Sum()
	fp2 := NewHasher().String("v2").Sum()

	run := s.Begin("test", nil)
	if a := run.Lookup("node:x", fp1); a != nil {
		t.Fatal("lookup hit in empty store")
	}
	_, putSecs := run.Commit("node:x", fp1, tbl, 7.5)
	if putSecs <= 0 {
		t.Fatal("commit of a real table should cost put time")
	}
	rep := run.Report()
	if rep.Commits != 1 || rep.CommitBytes != relation.TableBytes(tbl) {
		t.Fatalf("commit accounting: %+v", rep)
	}
	if rep.Invalidations != 0 {
		t.Fatal("first contact must not count as invalidation")
	}

	// Second run: same fingerprint hits and fetches.
	run = s.Begin("test", nil)
	a := run.Lookup("node:x", fp1)
	if a == nil {
		t.Fatal("expected hit")
	}
	if a.Digest != relation.Digest(tbl) {
		t.Fatal("artifact digest mismatch")
	}
	if secs := run.Fetch(a); secs <= 0 {
		t.Fatal("fetching a real table should cost get time")
	}
	rep = run.Report()
	if rep.Hits != 1 || rep.Reused != 1 || rep.HitBytes != a.Bytes {
		t.Fatalf("hit accounting: %+v", rep)
	}
	if rep.ReusedSeconds != 7.5 {
		t.Fatalf("ReusedSeconds = %g, want 7.5", rep.ReusedSeconds)
	}
	if !rep.Warm {
		t.Fatal("second run of a scope should be warm")
	}

	// Third run: changed provenance on a known key = invalidation.
	run = s.Begin("test", nil)
	if a := run.Lookup("node:x", fp2); a != nil {
		t.Fatal("changed fingerprint must miss")
	}
	rep = run.Report()
	if rep.Invalidations != 1 {
		t.Fatalf("want 1 invalidation, got %+v", rep)
	}

	// Re-committing an existing fingerprint is a no-op.
	if a, secs := run.Commit("node:x", fp1, tbl, 1); secs != 0 || a == nil {
		t.Fatal("duplicate commit should return the existing version for free")
	}
}

func buildCountingNotebook(t *testing.T, ran *[]string) *notebook.Notebook {
	t.Helper()
	nb := notebook.New("nb", cost.Default())
	add := func(name string, w cost.Work) {
		nb.Add(&notebook.Cell{
			Name:   name,
			Source: name + " = work()",
			Run: func(k *notebook.Kernel) error {
				if !k.Replaying() {
					*ran = append(*ran, name)
				}
				k.Charge(w)
				k.Set(name, true)
				return nil
			},
		})
	}
	add("load", cost.Work{Interp: 10})
	add("clean", cost.Work{Interp: 20})
	add("train", cost.Work{Interp: 30})
	add("plot", cost.Work{Interp: 5})
	return nb
}

func TestNotebookPrefixReuseAndSuffixInvalidation(t *testing.T) {
	s, err := NewStore(cost.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var ran []string

	// Cold run: everything executes and commits.
	nb := buildCountingNotebook(t, &ran)
	rep, err := RunNotebook(s, nb, NotebookSpec{Scope: "script:nb"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 4 || rep.Commits != 4 || rep.Reused != 0 {
		t.Fatalf("cold run: ran=%v report=%+v", ran, rep)
	}
	cold := nb.Elapsed()

	// Unchanged re-run: all cells replay, none execute fresh work, and
	// the warm kernel skips the interpreter launch entirely.
	ran = nil
	nb = buildCountingNotebook(t, &ran)
	rep, err = RunNotebook(s, nb, NotebookSpec{Scope: "script:nb"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 0 || rep.Reused != 4 {
		t.Fatalf("warm run: ran=%v report=%+v", ran, rep)
	}
	if nb.Elapsed() != 0 {
		t.Fatalf("all-hit warm run should cost 0, got %g", nb.Elapsed())
	}
	if !nb.Kernel().Defined("plot") {
		t.Fatal("replay did not rebuild kernel state")
	}

	// Edit "clean" (cell 1): the suffix rule re-runs clean, train AND
	// plot — even though plot is dataflow-independent of clean.
	ran = nil
	nb = buildCountingNotebook(t, &ran)
	rep, err = RunNotebook(s, nb, NotebookSpec{
		Scope: "script:nb",
		Revs:  map[string]int{"clean": 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"clean", "train", "plot"}
	if len(ran) != 3 || ran[0] != want[0] || ran[1] != want[1] || ran[2] != want[2] {
		t.Fatalf("suffix invalidation: ran %v, want %v", ran, want)
	}
	if rep.Reused != 1 || rep.Invalidations != 1 {
		t.Fatalf("edit run report: %+v", rep)
	}
	if nb.Elapsed() >= cold {
		t.Fatalf("incremental (%g) not cheaper than cold (%g)", nb.Elapsed(), cold)
	}
	if !nb.Kernel().Defined("load") {
		t.Fatal("replayed prefix did not rebuild kernel state")
	}
}

func TestNotebookScriptHitsCarryNoBytes(t *testing.T) {
	s, err := NewStore(cost.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	if _, err := RunNotebook(s, buildCountingNotebook(t, &ran), NotebookSpec{Scope: "s"}, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := RunNotebook(s, buildCountingNotebook(t, &ran), NotebookSpec{Scope: "s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HitBytes != 0 || rep.CommitBytes != 0 {
		t.Fatalf("script artifacts must be metadata-only: %+v", rep)
	}
}
