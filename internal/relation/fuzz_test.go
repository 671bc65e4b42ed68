package relation

import (
	"fmt"
	"math"
	"testing"
)

// FuzzDecodeTuple checks the binary decoder never panics on arbitrary
// bytes and that whatever it accepts re-encodes to the same bytes it
// consumed.
func FuzzDecodeTuple(f *testing.F) {
	seedTuples := []Tuple{
		{IntValue(1), StringValue("hello"), FloatValue(3.14), BoolValue(true)},
		{},
		{StringValue("")},
		{IntValue(-1)},
	}
	for _, t := range seedTuples {
		f.Add(EncodeTuple(nil, t))
	}
	f.Add([]byte{0x01, 0x7f})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, n, err := DecodeTuple(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if re := EncodeTuple(nil, tup); string(re) != string(data[:n]) {
			t.Fatalf("re-encoding differs from consumed bytes")
		}
	})
}

// fuzzTable derives a deterministic table from fuzz bytes: a small-
// domain Int key (join/group collisions), a Float column seeded with
// the IEEE specials (NaN, ±0, ±Inf), a low-cardinality String column
// (dictionary encoding), a near-unique String column (raw encoding),
// and a Bool column. Four input bytes make one row.
func fuzzTable(data []byte) *Table {
	s := MustSchema(
		Field{Name: "k", Type: Int},
		Field{Name: "f", Type: Float},
		Field{Name: "s", Type: String},
		Field{Name: "u", Type: String},
		Field{Name: "b", Type: Bool},
	)
	cats := []string{"", "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"}
	t := NewTable(s)
	n := len(data) / 4
	if n > 2048 {
		n = 2048
	}
	for i := 0; i < n; i++ {
		b := data[i*4 : i*4+4]
		var f float64
		switch b[1] % 8 {
		case 0:
			f = math.NaN()
		case 1:
			f = math.Copysign(0, -1)
		case 2:
			f = 0
		case 3:
			f = math.Inf(1)
		case 4:
			f = math.Inf(-1)
		default:
			f = float64(b[1]) / 3
		}
		t.AppendUnchecked(Tuple{
			IntValue(int64(b[0] % 16)),
			FloatValue(f),
			StringValue(cats[b[2]%8]),
			StringValue(fmt.Sprintf("u%d-%d", i, b[3])),
			BoolValue(b[3]&1 == 1),
		})
	}
	return t
}

// encodeOrFatal is EncodeTable with test plumbing.
func encodeOrFatal(t *testing.T, tbl *Table) string {
	t.Helper()
	b, err := EncodeTable(tbl)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return string(b)
}

// FuzzDecodeTable checks the table decoder never panics or
// over-allocates on arbitrary bytes, and that whatever it accepts
// re-encodes to a byte-for-byte prefix of the input — so non-minimal
// uvarints and bool payloads other than 0/1 stay rejected, and no two
// byte strings decode to the same table.
func FuzzDecodeTable(f *testing.F) {
	good := fuzzTable([]byte("decoder-fuzz-seed-corpus-0123456789abcdef"))
	enc, err := EncodeTable(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{0x05})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, seed := range [][]byte{
		[]byte("serde-round-trip-seed-bytes-0123456789"),
		{7, 0, 255, 1},
		{},
	} {
		enc, err := EncodeTable(fuzzTable(seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	schema := good.Schema()
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeTable(schema, data)
		if err != nil {
			return
		}
		// Every row costs at least its one-byte header.
		if dec.Len() > len(data) {
			t.Fatalf("decoded %d rows from %d bytes", dec.Len(), len(data))
		}
		re := encodeOrFatal(t, dec)
		if len(re) > len(data) || re != string(data[:len(re)]) {
			t.Fatal("re-encoding is not a prefix of the input")
		}
		if int64(len(re)) != TableBytes(dec) {
			t.Fatalf("TableBytes = %d, encoded %d bytes", TableBytes(dec), len(re))
		}
	})
}
