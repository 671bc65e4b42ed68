// Command datagen writes the four synthetic datasets to disk in the
// formats the tasks describe: MACCROBAT-style (.txt, .ann) pairs for
// DICE, JSONL tweets for WEF, JSONL passages with cloze questions for
// GOTTA, and JSONL products plus purchase triples for KGE.
//
// Usage:
//
//	datagen -out data/ -pairs 200 -tweets 800 -passages 16 -products 6800
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/brat"
	"repro/internal/datagen"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the command: exit 2 for a bad flag, before anything is written.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "data", "output directory")
		seed     = fs.Uint64("seed", 1, "generator seed")
		pairs    = fs.Int("pairs", 200, "MACCROBAT text/annotation pairs")
		tweets   = fs.Int("tweets", 800, "labeled wildfire tweets")
		passages = fs.Int("passages", 16, "GOTTA passages")
		products = fs.Int("products", 6800, "KGE candidate products")
		users    = fs.Int("users", 8, "KGE users")
	)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	valid := func(name string, v, least int) bool {
		if v < least {
			fmt.Fprintf(stderr, "datagen: -%s must be at least %d, got %d\n", name, least, v)
		}
		return v >= least
	}
	if !valid("pairs", *pairs, 1) || !valid("tweets", *tweets, 1) || !valid("passages", *passages, 1) ||
		!valid("products", *products, 1) || !valid("users", *users, 0) {
		return 2
	}
	if err := run(stdout, *out, *seed, *pairs, *tweets, *passages, *products, *users); err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 1
	}
	return 0
}

func run(stdout io.Writer, out string, seed uint64, pairs, tweets, passages, products, users int) error {
	macDir := filepath.Join(out, "maccrobat")
	if err := os.MkdirAll(macDir, 0o755); err != nil {
		return err
	}

	// DICE: MACCROBAT pairs.
	for _, c := range datagen.GenerateClinicalCases(pairs, seed) {
		if err := os.WriteFile(filepath.Join(macDir, c.ID+".txt"), []byte(c.Text), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(macDir, c.ID+".ann"), []byte(brat.Render(c.Ann)), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %d MACCROBAT pairs to %s\n", pairs, macDir)

	// WEF: tweets.
	if err := writeJSONL(filepath.Join(out, "wildfire_tweets.jsonl"), func(emit func(any) error) error {
		for _, t := range datagen.GenerateTweets(tweets, seed) {
			rec := map[string]any{"id": t.ID, "text": t.Text}
			for i, name := range datagen.FramingNames {
				rec[name] = t.Framings[i]
			}
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d tweets\n", tweets)

	// GOTTA: passages.
	if err := writeJSONL(filepath.Join(out, "passages.jsonl"), func(emit func(any) error) error {
		for _, p := range datagen.GeneratePassages(passages, 5, seed) {
			qas := make([]map[string]string, len(p.QAs))
			for i, qa := range p.QAs {
				qas[i] = map[string]string{"cloze": qa.Cloze, "answer": qa.Answer}
			}
			if err := emit(map[string]any{"id": p.ID, "text": p.Text, "qas": qas}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d passages\n", passages)

	// KGE: products and purchases.
	world := datagen.GenerateProducts(products, users, 0.1, seed)
	if err := writeJSONL(filepath.Join(out, "candidates.jsonl"), func(emit func(any) error) error {
		for _, p := range world.Products {
			if err := emit(map[string]any{
				"asin": p.ASIN, "title": p.Title, "category": p.Category,
				"price": p.Price, "instock": p.InStock,
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(out, "purchases.jsonl"), func(emit func(any) error) error {
		for _, tr := range world.Purchases {
			if err := emit(map[string]any{"user": tr.Head, "rel": tr.Rel, "asin": tr.Tail}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d products and %d purchases\n", products, len(world.Purchases))
	return nil
}

func writeJSONL(path string, produce func(emit func(any) error) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := produce(func(v any) error { return enc.Encode(v) }); err != nil {
		return err
	}
	return f.Close()
}
