// Package ml_test holds cross-cutting micro-benchmarks of the ML
// substrates: feature hashing, classifier training, cloze generation
// and embedding ranking.
package ml_test

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ml/feature"
	"repro/internal/ml/genqa"
	"repro/internal/ml/kge"
	"repro/internal/ml/textclf"
)

func BenchmarkHashingVectorizer(b *testing.B) {
	h, err := feature.NewHashingVectorizer(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	doc := "climate change made this fire season explosive stay safe everyone #wildfire"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.Transform(doc)) == 0 {
			b.Fatal("empty vector")
		}
	}
}

func BenchmarkTextclfFinetune(b *testing.B) {
	tweets := datagen.GenerateTweets(200, 1)
	texts := datagen.Texts(tweets)
	labels := make([]bool, len(tweets))
	for i, t := range tweets {
		labels[i] = t.Framings[0] // link
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := textclf.Pretrained("bench", 2048, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Finetune(texts, labels, textclf.Config{Epochs: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenqaGenerate(b *testing.B) {
	ps := datagen.GeneratePassages(1, 6, 3)
	m := genqa.NewModel()
	qa := ps[0].QAs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Generate(qa.Context, qa.Cloze) == "" {
			b.Fatal("abstained")
		}
	}
}

func BenchmarkKGETrainEpoch(b *testing.B) {
	world := datagen.GenerateProducts(500, 8, 0, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := kge.New(world.EntityNames(), []string{"buys"}, 16, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := model.Train(world.Purchases, kge.TrainConfig{Epochs: 1, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReverseLookup(b *testing.B) {
	world := datagen.GenerateProducts(5000, 8, 0, 5)
	model, err := kge.New(world.EntityNames(), []string{"buys"}, 16, 9)
	if err != nil {
		b.Fatal(err)
	}
	vec, err := model.Embedding(world.Products[1234].ASIN)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := model.ReverseLookup(vec)
		if err != nil || got != world.Products[1234].ASIN {
			b.Fatalf("lookup failed: %v %v", got, err)
		}
	}
}

var benchSink int

func BenchmarkTweetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tweets := datagen.GenerateTweets(100, uint64(i))
		benchSink += len(tweets)
	}
	_ = fmt.Sprint(benchSink)
}
