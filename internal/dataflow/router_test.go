package dataflow

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "re-record this package's golden files from the current tree")

// goldenJSON reads testdata/<name> into want and reports true; under
// -update it writes got there instead and reports false, leaving the
// caller nothing to compare.
func goldenJSON(t *testing.T, name string, got, want any) bool {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, want); err != nil {
		t.Fatal(err)
	}
	return true
}

// recordOp remembers, per worker, the batches it was handed, as row
// IDs in arrival order. The source's single worker feeds each worker's
// queue, so the sequence a worker sees is the edge's partitioning and
// nothing else.
type recordOp struct {
	base
	mu   sync.Mutex
	seen [][][]int64 // [worker][batch] -> row IDs
}

func (o *recordOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) { return in[0], nil }
func (o *recordOp) NewInstance(ExecCtx, []*relation.Schema) (Instance, error) {
	return &recordInstance{o}, nil
}

type recordInstance struct{ op *recordOp }

func (ri *recordInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[0].Int()
	}
	ri.op.mu.Lock()
	wk := ec.(*execCtx).worker
	ri.op.seen[wk] = append(ri.op.seen[wk], ids)
	ri.op.mu.Unlock()
	return nil, nil
}
func (ri *recordInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }

// TestRouterHashPartitionGolden pins a hash edge's observable
// contract: which worker receives which rows, in which order, in how
// many batches. testdata/router_golden.json was recorded at 7c7000c,
// where a router goroutine per edge split the batches and hashed the
// string Tuple.Key built per row.
func TestRouterHashPartitionGolden(t *testing.T) {
	schema := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "key", Type: relation.String},
	)
	in := relation.NewTable(schema)
	rng := xrand.New(22)
	for i := 0; i < 1000; i++ {
		in.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(fmt.Sprintf("case-%d|T%d:é", rng.Intn(120), rng.Intn(40)))})
	}

	got := map[string][][][]int64{}
	for _, outs := range []int{2, 3, 4, 8} {
		rec := &recordOp{
			base: base{Desc{Name: "record", Language: cost.Python, Ports: 1, BlockingPorts: []bool{false}}},
			seen: make([][][]int64, outs),
		}
		w := New("router")
		src := sourceBatched(w, "src", in, 8)
		op := w.Op(rec, WithParallelism(outs))
		w.Connect(src, op, 0, HashPartition("key"))
		w.Connect(op, w.Sink("out"), 0, RoundRobin())
		runSimple(t, w)
		got[fmt.Sprintf("outs=%d", outs)] = rec.seen
	}

	var want map[string][][][]int64
	if !goldenJSON(t, "router_golden.json", got, &want) {
		return
	}
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: workers received different batches than at the parent", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d configurations, test ran %d", len(want), len(got))
	}
}

// TestHashSplitterFanOutPerCall calls one splitter, as one worker's
// hash edges of different fan-outs do, with outs 3, then 5, then 2, and
// then 4 on a batch larger than every earlier one: every call places
// each row in group KeyHash % outs, keeps arrival order within each
// group, and loses no row. On an arena with room reserved, a call
// allocates nothing however large its batch: the splitter keeps no
// per-row scratch that a larger batch would regrow.
func TestHashSplitterFanOutPerCall(t *testing.T) {
	rows := make([]relation.Tuple, 1280)
	for i := range rows {
		rows[i] = relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(fmt.Sprintf("key-%d", i*7%13))}
	}
	var split hashSplitter
	for _, c := range []struct{ n, outs int }{{40, 3}, {40, 5}, {40, 2}, {400, 4}} {
		in := rows[:c.n]
		want := make([][]relation.Tuple, c.outs)
		for _, r := range in {
			g := int(r.KeyHash(1)) % c.outs
			want[g] = append(want[g], r)
		}
		placed, ends := split.by(in, 1, c.outs)
		if len(ends) != c.outs || len(placed) != len(in) {
			t.Fatalf("%d rows, outs=%d: %d groups over %d rows, want %d over %d", c.n, c.outs, len(ends), len(placed), c.outs, len(in))
		}
		lo := 0
		for g, hi := range ends {
			got := placed[lo:hi]
			if len(got) != len(want[g]) {
				t.Fatalf("%d rows, outs=%d: group %d has %d rows, want %d", c.n, c.outs, g, len(got), len(want[g]))
			}
			for i := range got {
				if !got[i].Equal(want[g][i]) {
					t.Fatalf("%d rows, outs=%d: group %d row %d is %v, want %v", c.n, c.outs, g, i, got[i], want[g][i])
				}
			}
			lo = hi
		}
	}

	// The warm-up call splits 640 rows and the measured one 1,280, each
	// larger than every batch before it; the arena holds them both.
	split.out.Reserve(640+1280, 0)
	n, lost := 320, false
	allocs := testing.AllocsPerRun(1, func() {
		n *= 2
		placed, ends := split.by(rows[:n], 1, 4)
		lost = lost || len(placed) != n || ends[3] != n
	})
	if lost {
		t.Fatal("a growing batch lost rows")
	}
	if allocs != 0 {
		t.Fatalf("a split of a growing batch on a reserved arena allocated %v objects, want 0", allocs)
	}
}
