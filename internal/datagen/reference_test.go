package datagen

import (
	"fmt"

	"repro/internal/ml/kge"
	"repro/internal/xrand"
)

// The Sprintf GenerateProducts that the one-string version replaced,
// kept verbatim as the oracle TestGenerateProductsMatchesReference
// compares against.

func refGenerateProducts(n, users int, outOfStockFrac float64, seed uint64) *ProductWorld {
	r := xrand.New(seed)
	w := &ProductWorld{UserCategory: make(map[string]string)}
	for i := 0; i < n; i++ {
		cat := ProductCategories[i%len(ProductCategories)]
		w.Products = append(w.Products, Product{
			ASIN:     fmt.Sprintf("B%09d", i),
			Title:    fmt.Sprintf("%s %s %d", xrand.Choice(r, productAdjectives), xrand.Choice(r, productNouns), i),
			Category: cat,
			Price:    5 + r.Float64()*195,
			InStock:  !r.Bool(outOfStockFrac),
		})
	}
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user-%03d", u)
		cat := ProductCategories[u%len(ProductCategories)]
		w.Users = append(w.Users, name)
		w.UserCategory[name] = cat
		// Purchase history: overwhelmingly in-category with light noise.
		bought := 0
		for bought < 12 {
			p := w.Products[r.Intn(len(w.Products))]
			if p.Category != cat && !r.Bool(0.02) {
				continue
			}
			w.Purchases = append(w.Purchases, kge.Triple{Head: name, Rel: "buys", Tail: p.ASIN})
			bought++
		}
	}
	return w
}
