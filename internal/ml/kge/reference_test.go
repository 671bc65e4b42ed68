package kge

import (
	"bytes"
	"fmt"
	"math"
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
