// Quickstart: the same tiny analysis implemented under both paradigms.
//
// A table of orders is filtered and aggregated twice: once as a
// GUI-style dataflow workflow (operators connected by links, pipelined
// execution, per-operator progress) and once as a notebook script
// (cells sharing one kernel). Both produce the same result; the
// simulated execution times differ by each paradigm's overheads.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/notebook"
	"repro/internal/relation"
)

func ordersTable() *relation.Table {
	schema := relation.MustSchema(
		relation.Field{Name: "order", Type: relation.Int},
		relation.Field{Name: "city", Type: relation.String},
		relation.Field{Name: "amount", Type: relation.Float},
	)
	t := relation.NewTable(schema)
	cities := []string{"irvine", "los angeles", "san diego"}
	for i := 0; i < 3000; i++ {
		t.AppendUnchecked(relation.Tuple{
			relation.IntValue(int64(i)), relation.StringValue(cities[i%3]), relation.FloatValue(float64(5 + i%40)),
		})
	}
	return t
}

func main() {
	orders := ordersTable()

	// --- Workflow paradigm ------------------------------------------------
	w := dataflow.New("quickstart")
	src := w.Source("orders", orders)
	big := w.Op(dataflow.NewFilter("big-orders", cost.Python, func(r relation.Tuple) bool {
		return r[2].Float() >= 20
	}), dataflow.WithParallelism(2))
	agg := w.Op(dataflow.NewGroupBy("by-city", cost.Python,
		[]string{"city"},
		[]relation.Aggregate{
			{Func: relation.Count, As: "orders"},
			{Func: relation.Sum, Field: "amount", As: "revenue"},
		}), dataflow.WithParallelism(2))
	sink := w.Sink("result")
	w.Connect(src, big, 0, dataflow.RoundRobin())
	w.Connect(big, agg, 0, dataflow.HashPartition("city"))
	w.Connect(agg, sink, 0, dataflow.RoundRobin())

	wfRes, err := w.Run(context.Background(), dataflow.Config{})
	if err != nil {
		log.Fatal(err)
	}
	wfOut := wfRes.Tables["result"]
	if err := wfOut.SortBy("city"); err != nil {
		log.Fatal(err)
	}

	// --- Script paradigm ---------------------------------------------------
	nb := notebook.New("quickstart", nil)
	nb.Add(&notebook.Cell{
		Name:   "load",
		Source: `orders = pd.read_json("orders.jsonl", lines=True)`,
		Run: func(k *notebook.Kernel) error {
			k.Set("orders", orders)
			k.Charge(cost.Work{Interp: 0.02})
			return nil
		},
	})
	nb.Add(&notebook.Cell{
		Name: "analyze",
		Source: `big = orders[orders.amount >= 20]
result = big.groupby("city").agg(orders=("order", "count"), revenue=("amount", "sum"))`,
		Run: func(k *notebook.Kernel) error {
			v, err := k.Need("orders")
			if err != nil {
				return err
			}
			t := v.(*relation.Table)
			filtered := relation.Filter(t, func(r relation.Tuple) bool { return r[2].Float() >= 20 })
			out, err := relation.GroupBy(filtered, []string{"city"}, []relation.Aggregate{
				{Func: relation.Count, As: "orders"},
				{Func: relation.Sum, Field: "amount", As: "revenue"},
			})
			if err != nil {
				return err
			}
			if err := out.SortBy("city"); err != nil {
				return err
			}
			k.Set("result", out)
			k.Charge(cost.Work{Interp: 0.6e-3}.Scale(float64(t.Len())))
			return nil
		},
	})
	if err := nb.RunAll(); err != nil {
		log.Fatal(err)
	}
	v, _ := nb.Kernel().Get("result")
	nbOut := v.(*relation.Table)

	// --- Compare ------------------------------------------------------------
	fmt.Println("result (both paradigms):")
	for _, r := range wfOut.Rows() {
		fmt.Printf("  %-12s orders=%-5d revenue=%.0f\n", r[0].Str(), r[1].Int(), r[2].Float())
	}
	fmt.Println("outputs equal:", wfOut.Equal(nbOut))
	fmt.Printf("workflow simulated time: %8.3f s\n", wfRes.SimSeconds)
	fmt.Printf("notebook simulated time: %8.3f s\n", nb.Elapsed())
}
