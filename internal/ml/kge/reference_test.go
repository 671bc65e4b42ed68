package kge

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refEncodeVec and refDecodeVec are EncodeVec and DecodeVec as they
// were before both became thin wrappers over AppendVec and
// DecodeVecInto: a fresh buffer and a fresh string per encoding, a
// fresh slice per decoding. Kept verbatim as the reference the codec
// must reproduce byte for byte and bit for bit.

func refEncodeVec(v []float64) string {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		bits := math.Float64bits(x)
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(bits >> (8 * b))
		}
	}
	return string(buf)
}

func refDecodeVec(s string) ([]float64, error) {
	if len(s)%8 != 0 {
		return nil, fmt.Errorf("kge: encoded vector length %d not a multiple of 8", len(s))
	}
	v := make([]float64, len(s)/8)
	for i := range v {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits |= uint64(s[i*8+b]) << (8 * b)
		}
		v[i] = math.Float64frombits(bits)
	}
	return v, nil
}

// sameBits reports whether two vectors hold the same bit patterns, so
// NaN payloads and the sign of zero count.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzVecCodec holds AppendVec, DecodeVecInto and their wrappers to the
// reference codec. The fuzzed bytes are read twice: as an encoded
// string of any length (the decoders must agree on its values or on its
// error), and, cut to a multiple of 8, as the bit patterns of a vector
// to encode (the encoders must agree on its bytes, and a round trip
// must give back every bit).
func FuzzVecCodec(f *testing.F) {
	for _, v := range [][]float64{
		nil,
		{0, math.Copysign(0, -1), 1, -1},
		{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		{math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_0042)},
	} {
		f.Add([]byte(refEncodeVec(v)), []byte("prefix"))
	}
	f.Add([]byte("short"), []byte(nil))
	f.Add([]byte("fifteen bytes!!"), []byte{1})
	f.Fuzz(func(t *testing.T, data, prefix []byte) {
		s := string(data)
		want, wantErr := refDecodeVec(s)
		scratch := make([]float64, 3, 5) // stale contents must not leak
		for i := range scratch {
			scratch[i] = math.NaN()
		}
		for name, decode := range map[string]func(string) ([]float64, error){
			"DecodeVec":     DecodeVec,
			"DecodeVecInto": func(s string) ([]float64, error) { return DecodeVecInto(scratch, s) },
		} {
			got, err := decode(s)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s(%d bytes): error %v, reference %v", name, len(s), err, wantErr)
			}
			if err == nil && !sameBits(got, want) {
				t.Fatalf("%s(%d bytes) = %v, reference %v", name, len(s), got, want)
			}
		}

		v, err := refDecodeVec(s[:len(s)-len(s)%8])
		if err != nil {
			t.Fatal(err)
		}
		enc := refEncodeVec(v)
		if got := EncodeVec(v); got != enc {
			t.Fatalf("EncodeVec(%v) = %x, reference %x", v, got, enc)
		}
		buf := AppendVec(bytes.Clone(prefix), v)
		if !bytes.HasPrefix(buf, prefix) || string(buf[len(prefix):]) != enc {
			t.Fatalf("AppendVec(%x, %v) = %x, want the prefix then %x", prefix, v, buf, enc)
		}
		back, err := DecodeVecInto(scratch, string(buf[len(prefix):]))
		if err != nil || !sameBits(back, v) {
			t.Fatalf("round trip of %v gave %v, %v", v, back, err)
		}
	})
}

// refTopK is TopK as it was before it kept only its k best: every
// candidate scored into a slice, the whole slice sorted, then cut to k.
// Kept verbatim, its sort and cut as refRankScored, as the reference
// TopK and Top must reproduce.
func (m *Model) refTopK(head, rel string, candidates []string, k int) ([]Scored, error) {
	if k <= 0 {
		return nil, fmt.Errorf("kge: k must be positive, got %d", k)
	}
	out := make([]Scored, 0, len(candidates))
	for _, c := range candidates {
		s, err := m.Score(head, rel, c)
		if err != nil {
			return nil, err
		}
		out = append(out, Scored{Entity: c, Score: s})
	}
	return refRankScored(out, k), nil
}

// refRankScored sorts scored entities by score, highest first, ties by
// entity, and keeps the first k.
func refRankScored(out []Scored, k int) []Scored {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity < out[j].Entity
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// TestTopKMatchesReference ranks a trained model's products, repeated
// candidates included, for every user at k from 1 past the candidate
// count, and wants what the reference returns.
func TestTopKMatchesReference(t *testing.T) {
	m := trainedModel(t)
	var candidates []string
	for p := 0; p < 40; p++ {
		candidates = append(candidates, fmt.Sprintf("prod%d", p), fmt.Sprintf("prod%d", p*7%40))
	}
	for u := 0; u < 8; u++ {
		head := fmt.Sprintf("user%d", u)
		for _, k := range []int{1, 2, 10, 79, 80, 81, 200} {
			got, err := m.TopK(head, "buys", candidates, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.refTopK(head, "buys", candidates, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, k=%d: TopK %v, reference %v", head, k, got, want)
			}
		}
	}
}

// FuzzTopKMatchesSort holds Top under byScore, TopK's order, to the
// reference's sort and cut: offered every fuzzed item, it must keep
// what refRankScored keeps, for k = 0, 1, the fuzzed k, the item count
// and past it, both halfway through the items and after the last. Each
// two bytes are an item: an entity from a pool of 40, so items repeat,
// and a finite score from a small set, so scores tie and entities
// break the ties; no score is -0, so items equal under byScore are
// equal in every bit.
func FuzzTopKMatchesSort(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{7, 3}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 200, 1, 8}, uint8(1))
	f.Add([]byte("the best ten of forty entities, ties and repeats included"), uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, fk uint8) {
		items := make([]Scored, len(data)/2)
		for i := range items {
			d := data[2*i+1]
			score := float64(d%16)/8 - 1
			if d >= 128 {
				score = -math.Sqrt(float64(d))
			}
			items[i] = Scored{Entity: fmt.Sprintf("e%02d", data[2*i]%40), Score: score}
		}
		for _, k := range []int{0, 1, int(fk), len(items), len(items) + 3} {
			top := NewTop(k, byScore)
			check := func(offered []Scored) {
				got := top.Sorted()
				if top.Seen() != len(offered) {
					t.Fatalf("k=%d: Seen %d after %d offers", k, top.Seen(), len(offered))
				}
				if want := refRankScored(slices.Clone(offered), k); !slices.Equal(got, want) {
					t.Fatalf("k=%d, %d offered: kept %v, reference %v", k, len(offered), got, want)
				}
			}
			half := len(items) / 2
			for _, x := range items[:half] {
				top.Offer(x)
			}
			check(items[:half])
			for _, x := range items[half:] {
				top.Offer(x)
			}
			check(items)
		}
	})
}

// refNew is New as it was before the entity vectors were drawn in parts
// on par.Do: each vector drawn in turn from one generator, in entity
// order, then the relation vectors from where it stood. Kept verbatim
// (its entity loop as refDrawUnits, so the generator's end state can be
// read) as the reference New and drawUnits must reproduce bit for bit.
func refNew(entities, relations []string, dim int, seed uint64) (*Model, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("kge: dimension must be positive, got %d", dim)
	}
	if len(entities) == 0 || len(relations) == 0 {
		return nil, fmt.Errorf("kge: need at least one entity and one relation")
	}
	m := &Model{
		Dim:      dim,
		entIndex: make(map[string]int, len(entities)),
		entNames: make([]string, 0, len(entities)),
		ent:      make([][]float64, 0, len(entities)),
		relIndex: make(map[string]int, len(relations)),
	}
	r := xrand.New(seed)
	block := make([]float64, len(entities)*dim)
	for _, e := range entities {
		if _, dup := m.entIndex[e]; dup {
			return nil, fmt.Errorf("kge: duplicate entity %q", e)
		}
		i := len(m.entNames)
		m.entIndex[e] = i
		m.entNames = append(m.entNames, e)
		m.ent = append(m.ent, randUnit(r, block[i*dim:(i+1)*dim:(i+1)*dim]))
	}
	for _, rl := range relations {
		if _, dup := m.relIndex[rl]; dup {
			return nil, fmt.Errorf("kge: duplicate relation %q", rl)
		}
		m.relIndex[rl] = len(m.relNames)
		m.relNames = append(m.relNames, rl)
		m.rel = append(m.rel, randUnit(r, make([]float64, dim)))
	}
	return m, nil
}

// refDrawUnits is refNew's entity loop: one vector after another.
func refDrawUnits(r *xrand.Rand, rows [][]float64) {
	for _, v := range rows {
		randUnit(r, v)
	}
}

// gamma is SplitMix64's state increment per draw.
const gamma = 0x9e3779b97f4a7c15

// unmix inverts SplitMix64's output function: the state whose draw
// Uint64 returns z.
func unmix(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= mulInverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= mulInverse(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// unxorshift inverts y = x ^ (x >> s).
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64; i += s {
		x = y ^ (x >> s)
	}
	return x
}

// mulInverse returns the inverse of an odd c modulo 2^64 by Newton's
// iteration, which doubles the correct low bits each step.
func mulInverse(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}

// retrySeed is the seed whose Norm number c (counting from 0) retries:
// its first uniform is the (2c+1)th value drawn, and that value is 0.
func retrySeed(c int) uint64 {
	return unmix(0) - uint64(2*c+1)*gamma
}

// TestDrawUnitsMatchesReference draws tables of 1, 511, 512, 513 and
// 6,808 vectors at dims 1 and 16 in parts and one after another, and
// wants every bit of every vector and the generator's end state equal.
// Besides two natural seeds, it builds seeds whose Norm retries (its
// first uniform is 0, which no natural seed reaches) in the first part,
// in the middle of the table, on the last Norm before a part boundary,
// on the first after it, and in the last vector. A retry shifts every
// later part off its assumed start, so each of those parts is redrawn.
func TestDrawUnitsMatchesReference(t *testing.T) {
	for _, n := range []int{1, 511, 512, 513, 6808} {
		for _, dim := range []int{1, 16} {
			seeds := []uint64{1, 7}
			retries := map[uint64]bool{}
			for _, c := range []int{3 * dim, n / 2 * dim, 512*dim - 1, 512 * dim, n*dim - 1} {
				if c < n*dim {
					seeds = append(seeds, retrySeed(c))
					retries[retrySeed(c)] = true
				}
			}
			for _, seed := range seeds {
				got, want := xrand.New(seed), xrand.New(seed)
				gotRows, wantRows := make([][]float64, n), make([][]float64, n)
				for i := range gotRows {
					gotRows[i], wantRows[i] = make([]float64, dim), make([]float64, dim)
				}
				drawUnits(got, gotRows)
				refDrawUnits(want, wantRows)
				for i := range wantRows {
					if !sameBits(gotRows[i], wantRows[i]) {
						t.Fatalf("n=%d dim=%d seed=%#x: vector %d is %v, reference %v", n, dim, seed, i, gotRows[i], wantRows[i])
					}
				}
				if *got != *want {
					t.Fatalf("n=%d dim=%d seed=%#x: end state %v, reference %v", n, dim, seed, *got, *want)
				}
				noRetry := xrand.New(seed)
				noRetry.Jump(uint64(2 * n * dim))
				if retried := *want != *noRetry; retried != retries[seed] {
					t.Fatalf("n=%d dim=%d seed=%#x: retried %t, built to retry %t", n, dim, seed, retried, retries[seed])
				}
			}
		}
	}
}

// TestNewMatchesReference builds a model with New and with refNew and
// wants every entity and relation vector equal bit for bit, and the
// same errors.
func TestNewMatchesReference(t *testing.T) {
	ents := make([]string, 1100)
	for i := range ents {
		ents[i] = fmt.Sprintf("e%d", i)
	}
	rels := []string{"buys", "views", "rates"}
	for _, seed := range []uint64{1, retrySeed(600 * 8)} {
		got, err := New(ents, rels, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refNew(ents, rels, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.ent {
			if !sameBits(got.ent[i], want.ent[i]) {
				t.Fatalf("seed %#x: entity %d is %v, reference %v", seed, i, got.ent[i], want.ent[i])
			}
		}
		for i := range want.rel {
			if !sameBits(got.rel[i], want.rel[i]) {
				t.Fatalf("seed %#x: relation %d is %v, reference %v", seed, i, got.rel[i], want.rel[i])
			}
		}
	}
	for _, c := range []struct{ ents, rels []string }{
		{[]string{"a", "b", "a"}, rels},
		{ents[:3], []string{"buys", "buys"}},
		{nil, rels},
	} {
		_, err := New(c.ents, c.rels, 4, 1)
		_, wantErr := refNew(c.ents, c.rels, 4, 1)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
	}
}
