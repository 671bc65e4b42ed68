package kge

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
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
