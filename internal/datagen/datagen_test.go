package datagen

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ml/genqa"
	"repro/internal/textproc"
)

func TestClinicalCasesShape(t *testing.T) {
	cases := GenerateClinicalCases(20, 1)
	if len(cases) != 20 {
		t.Fatalf("cases = %d", len(cases))
	}
	for _, c := range cases {
		if c.Text == "" || len(c.Ann.Entities) == 0 || len(c.Ann.Events) == 0 {
			t.Fatalf("case %s degenerate", c.ID)
		}
	}
}

func TestClinicalAnnotationsValid(t *testing.T) {
	for _, c := range GenerateClinicalCases(50, 2) {
		if err := c.Ann.Validate(len(c.Text)); err != nil {
			t.Fatalf("case %s: %v", c.ID, err)
		}
	}
}

func TestClinicalSpansMatchText(t *testing.T) {
	for _, c := range GenerateClinicalCases(50, 3) {
		for _, e := range c.Ann.Entities {
			if c.Text[e.Start:e.End] != e.Text {
				t.Fatalf("case %s entity %s: span %q != text %q", c.ID, e.ID, c.Text[e.Start:e.End], e.Text)
			}
		}
	}
}

func TestClinicalEntitiesInsideSentences(t *testing.T) {
	// Every entity span must lie within exactly one sentence — the
	// property the DICE sentence-linking join depends on.
	for _, c := range GenerateClinicalCases(30, 4) {
		sents := textproc.SplitSentences(c.Text)
		for _, e := range c.Ann.Entities {
			found := 0
			for _, s := range sents {
				if e.Start >= s.Start && e.End <= s.End {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("case %s entity %s in %d sentences", c.ID, e.ID, found)
			}
		}
	}
}

func TestClinicalEventMixIncludesThemes(t *testing.T) {
	withTheme, withoutTheme := 0, 0
	for _, c := range GenerateClinicalCases(100, 5) {
		for _, ev := range c.Ann.Events {
			if len(ev.Args) > 0 {
				withTheme++
			} else {
				withoutTheme++
			}
		}
	}
	if withTheme == 0 || withoutTheme == 0 {
		t.Fatalf("need both event kinds: with=%d without=%d", withTheme, withoutTheme)
	}
}

func TestClinicalDeterministic(t *testing.T) {
	a := GenerateClinicalCases(5, 9)
	b := GenerateClinicalCases(5, 9)
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatal("generation not deterministic")
		}
	}
	c := GenerateClinicalCases(5, 10)
	same := 0
	for i := range a {
		if a[i].Text == c[i].Text {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds gave identical output")
	}
}

func TestTweetsShape(t *testing.T) {
	tweets := GenerateTweets(800, 1)
	if len(tweets) != 800 {
		t.Fatalf("tweets = %d", len(tweets))
	}
	counts := make([]int, NumFramings+1)
	for _, tw := range tweets {
		n := 0
		for _, f := range tw.Framings {
			if f {
				n++
			}
		}
		if n < 1 || n > 4 {
			t.Fatalf("tweet %d has %d framings", tw.ID, n)
		}
		counts[n]++
		if tw.Text == "" {
			t.Fatal("empty tweet text")
		}
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("framing count distribution degenerate: %v", counts)
	}
}

func TestTweetLabelsAndTexts(t *testing.T) {
	tweets := GenerateTweets(10, 2)
	labels := Labels(tweets)
	texts := Texts(tweets)
	if len(labels) != 10 || len(texts) != 10 {
		t.Fatal("helper lengths wrong")
	}
	for i := range tweets {
		if texts[i] != tweets[i].Text {
			t.Fatal("texts mismatch")
		}
		for k := 0; k < NumFramings; k++ {
			if labels[i][k] != tweets[i].Framings[k] {
				t.Fatal("labels mismatch")
			}
		}
	}
}

func TestTweetFramingsLearnableMarkers(t *testing.T) {
	// Every active framing should be witnessed by one of its phrases.
	tweets := GenerateTweets(200, 3)
	for _, tw := range tweets {
		for f := 0; f < NumFramings; f++ {
			if !tw.Framings[f] {
				continue
			}
			found := false
			for _, p := range framingPhrases[f] {
				if strings.Contains(tw.Text, p) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("tweet %d lacks a phrase for framing %s: %q", tw.ID, FramingNames[f], tw.Text)
			}
		}
	}
}

func TestPassagesShape(t *testing.T) {
	ps := GeneratePassages(16, 5, 1)
	if len(ps) != 16 {
		t.Fatalf("passages = %d", len(ps))
	}
	for _, p := range ps {
		if p.Text == "" || len(p.QAs) == 0 {
			t.Fatalf("passage %s degenerate", p.ID)
		}
		for _, qa := range p.QAs {
			if qa.Context != p.Text {
				t.Fatal("cloze context not the passage text")
			}
			if !strings.Contains(qa.Context, qa.Answer) {
				t.Fatalf("answer %q not in context", qa.Answer)
			}
			if !strings.Contains(qa.Cloze, genqa.MaskToken) {
				t.Fatalf("cloze %q lacks mask", qa.Cloze)
			}
		}
	}
}

func TestPassagesAnswerable(t *testing.T) {
	// The generative model should answer most generated clozes — the
	// datasets must actually exercise the inference path.
	m := genqa.NewModel()
	ps := GeneratePassages(8, 5, 7)
	var res genqa.EvalResult
	total := 0
	for _, p := range ps {
		r, err := m.Evaluate(p.QAs)
		if err != nil {
			t.Fatal(err)
		}
		res.EM += r.EM * float64(r.N)
		total += r.N
	}
	em := res.EM / float64(total)
	if em < 0.8 {
		t.Fatalf("exact match on synthetic passages = %v", em)
	}
}

func TestProductWorldShape(t *testing.T) {
	w := GenerateProducts(1000, 8, 0.1, 1)
	if len(w.Products) != 1000 || len(w.Users) != 8 {
		t.Fatalf("world = %d products, %d users", len(w.Products), len(w.Users))
	}
	outOfStock := 0
	for _, p := range w.Products {
		if !p.InStock {
			outOfStock++
		}
		if p.ASIN == "" || p.Title == "" || p.Category == "" || p.Price <= 0 {
			t.Fatalf("degenerate product %+v", p)
		}
	}
	frac := float64(outOfStock) / 1000
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("out-of-stock fraction = %v", frac)
	}
	if len(w.Purchases) != 8*12 {
		t.Fatalf("purchases = %d", len(w.Purchases))
	}
}

func TestProductPurchasesMatchPreferences(t *testing.T) {
	w := GenerateProducts(800, 8, 0, 2)
	inCat := 0
	for _, tr := range w.Purchases {
		p := w.ProductByASIN(tr.Tail)
		if p == nil {
			t.Fatalf("purchase references unknown product %s", tr.Tail)
		}
		if p.Category == w.UserCategory[tr.Head] {
			inCat++
		}
	}
	if frac := float64(inCat) / float64(len(w.Purchases)); frac < 0.8 {
		t.Fatalf("in-category purchase fraction = %v", frac)
	}
}

func TestEntityNames(t *testing.T) {
	w := GenerateProducts(10, 2, 0, 3)
	names := w.EntityNames()
	if len(names) != 12 {
		t.Fatalf("entities = %d", len(names))
	}
	if names[0] != "user-000" || names[2] != "B000000000" {
		t.Fatalf("entity order wrong: %v", names[:3])
	}
}

func TestProductByASINMissing(t *testing.T) {
	w := GenerateProducts(5, 1, 0, 4)
	if w.ProductByASIN("nope") != nil {
		t.Fatal("missing ASIN should give nil")
	}
}

func TestPropertyGeneratorsDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		t1 := GenerateTweets(5, seed)
		t2 := GenerateTweets(5, seed)
		for i := range t1 {
			if t1[i].Text != t2[i].Text || t1[i].Framings != t2[i].Framings {
				return false
			}
		}
		p1 := GeneratePassages(2, 3, seed)
		p2 := GeneratePassages(2, 3, seed)
		for i := range p1 {
			if p1[i].Text != p2[i].Text {
				return false
			}
		}
		w1 := GenerateProducts(20, 2, 0.1, seed)
		w2 := GenerateProducts(20, 2, 0.1, seed)
		for i := range w1.Products {
			if w1.Products[i] != w2.Products[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateProductsMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 13} {
		for _, n := range []int{1, 7, 3400, 6800} {
			got, want := GenerateProducts(n, 8, 0.1, seed), refGenerateProducts(n, 8, 0.1, seed)
			if len(got.Products) != len(want.Products) {
				t.Fatalf("seed %d n %d: %d products, reference %d", seed, n, len(got.Products), len(want.Products))
			}
			for i := range want.Products {
				if got.Products[i] != want.Products[i] {
					t.Fatalf("seed %d n %d: product %d = %+v, reference %+v", seed, n, i, got.Products[i], want.Products[i])
				}
			}
			if !reflect.DeepEqual(got.Users, want.Users) || !reflect.DeepEqual(got.Purchases, want.Purchases) || !reflect.DeepEqual(got.UserCategory, want.UserCategory) {
				t.Fatalf("seed %d n %d: users, purchases or preferences differ from the reference", seed, n)
			}
		}
	}
}

// TestGenerateClinicalCasesMatchesReference holds the block-carving
// generator to the per-case one it replaced, field for field: same
// RNG draws, same IDs, texts, entities, events and arguments.
func TestGenerateClinicalCasesMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		for _, n := range []int{1, 50, 200} {
			got, want := GenerateClinicalCases(n, seed), refGenerateClinicalCases(n, seed)
			if len(got) != len(want) {
				t.Fatalf("seed %d n %d: %d cases, reference %d", seed, n, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.ID != w.ID || g.Text != w.Text || !slices.Equal(g.Ann.Entities, w.Ann.Entities) {
					t.Fatalf("seed %d n %d: case %d (%s) differs from the reference's %s in its ID, text or entities", seed, n, i, g.ID, w.ID)
				}
				if len(g.Ann.Events) != len(w.Ann.Events) {
					t.Fatalf("seed %d n %d: case %s has %d events, reference %d", seed, n, w.ID, len(g.Ann.Events), len(w.Ann.Events))
				}
				for k, we := range w.Ann.Events {
					ge := g.Ann.Events[k]
					if ge.ID != we.ID || ge.Type != we.Type || ge.Trigger != we.Trigger || !slices.Equal(ge.Args, we.Args) || (ge.Args == nil) != (we.Args == nil) {
						t.Fatalf("seed %d n %d: case %s event %d = %+v, reference %+v", seed, n, w.ID, k, ge, we)
					}
				}
			}
		}
	}
}

func TestAppendCaseIDMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 7, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
		if got, want := string(appendCaseID(nil, i)), fmt.Sprintf("case-%04d", i); got != want {
			t.Fatalf("appendCaseID(%d) = %q, want %q", i, got, want)
		}
	}
}
