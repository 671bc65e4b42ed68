package datagen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ml/kge"
	"repro/internal/xrand"
)

// Product is one Amazon-style candidate item for the KGE task.
type Product struct {
	ASIN     string
	Title    string
	Category string
	Price    float64
	InStock  bool
}

// ProductWorld is the KGE task's input universe: candidate products, a
// target user, and the purchase history (triples) a recommendation
// model is trained on.
type ProductWorld struct {
	Products  []Product
	Users     []string
	Purchases []kge.Triple
	// UserCategory records each user's preferred category, the ground
	// truth the recommender should recover.
	UserCategory map[string]string
}

// ProductCategories lists the synthetic catalog's categories.
var ProductCategories = []string{
	"books", "electronics", "garden", "kitchen", "sports", "toys", "grooming", "office",
}

var productAdjectives = []string{"Premium", "Compact", "Wireless", "Classic", "Eco", "Deluxe", "Portable", "Smart"}
var productNouns = []string{"Speaker", "Novel", "Trowel", "Blender", "Racket", "Puzzle", "Trimmer", "Organizer"}

// GenerateProducts builds a product world with n candidate products,
// users purchase histories concentrated in one category per user, and
// roughly outOfStockFrac of candidates unavailable (the KGE task's
// first filter).
func GenerateProducts(n, users int, outOfStockFrac float64, seed uint64) *ProductWorld {
	r := xrand.New(seed)
	w := &ProductWorld{
		Products:     make([]Product, n),
		Users:        make([]string, 0, users),
		Purchases:    make([]kge.Triple, 0, 12*users),
		UserCategory: make(map[string]string, users),
	}
	// Every ASIN and title is cut from one string: a strings.Builder never
	// rewrites bytes String has handed out. Grown for a 10-byte ASIN, at
	// most 19 bytes of title words and the number twice per product.
	digits := len(strconv.Itoa(n))
	var b strings.Builder
	b.Grow(n * (29 + 2*digits))
	var num [20]byte
	for i := range w.Products {
		id := strconv.AppendInt(num[:0], int64(i), 10)
		start := b.Len()
		b.WriteByte('B')
		b.WriteString("000000000"[min(len(id), 9):]) // zero-pad to nine digits
		b.Write(id)
		mid := b.Len()
		b.WriteString(xrand.Choice(r, productAdjectives))
		b.WriteByte(' ')
		b.WriteString(xrand.Choice(r, productNouns))
		b.WriteByte(' ')
		b.Write(id)
		s := b.String()
		w.Products[i] = Product{
			ASIN:     s[start:mid],
			Title:    s[mid:],
			Category: ProductCategories[i%len(ProductCategories)],
			Price:    5 + r.Float64()*195,
			InStock:  !r.Bool(outOfStockFrac),
		}
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

// EntityNames returns all entity identifiers (users then products) for
// building a KGE model over the world.
func (w *ProductWorld) EntityNames() []string {
	out := make([]string, 0, len(w.Users)+len(w.Products))
	out = append(out, w.Users...)
	for _, p := range w.Products {
		out = append(out, p.ASIN)
	}
	return out
}

// ProductByASIN returns the product with the given ASIN, or nil.
func (w *ProductWorld) ProductByASIN(asin string) *Product {
	for i := range w.Products {
		if w.Products[i].ASIN == asin {
			return &w.Products[i]
		}
	}
	return nil
}
