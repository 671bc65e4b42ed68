package relation

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func randomTuple(r *xrand.Rand) Tuple {
	n := 1 + r.Intn(8)
	t := make(Tuple, n)
	for i := range t {
		switch r.Intn(4) {
		case 0:
			t[i] = IntValue(int64(r.Uint64()))
		case 1:
			t[i] = FloatValue(r.Norm() * 1e6)
		case 2:
			b := make([]byte, r.Intn(40))
			for j := range b {
				b[j] = byte(r.Intn(256))
			}
			t[i] = StringValue(string(b))
		case 3:
			t[i] = BoolValue(r.Bool(0.5))
		}
	}
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tp := randomTuple(r)
		enc := EncodeTuple(nil, tp)
		dec, n, err := DecodeTuple(enc)
		if err != nil || n != len(enc) {
			return false
		}
		return tp.Equal(dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tp := randomTuple(r)
		return EncodedSize(tp) == int64(len(EncodeTuple(nil, tp)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},                   // empty
		{0x01, tagInt},       // truncated int
		{0x01, tagFloat, 1},  // truncated float
		{0x01, tagString},    // missing length
		{0x01, tagString, 5}, // truncated string body
		{0x01, tagBool},      // truncated bool
		{0x01, 0x7f},         // unknown tag
		{0x02, tagBool, 1},   // second value missing entirely
	}
	for i, c := range cases {
		if _, _, err := DecodeTuple(c); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	s := MustSchema(Field{"id", Int}, Field{"name", String}, Field{"score", Float}, Field{"ok", Bool})
	r := xrand.New(77)
	tbl := NewTable(s)
	for i := 0; i < 100; i++ {
		tbl.MustAppend(Tuple{IntValue(int64(i)), StringValue("row"), FloatValue(r.Float64()), BoolValue(r.Bool(0.5))})
	}
	enc, err := EncodeTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(enc)) != TableBytes(tbl) {
		t.Fatalf("TableBytes = %d, encoding = %d", TableBytes(tbl), len(enc))
	}
	dec, err := DecodeTable(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(dec) {
		t.Fatal("table round trip mismatch")
	}
}

func TestDecodeTableValidatesAgainstSchema(t *testing.T) {
	s1 := MustSchema(Field{"id", Int})
	tbl := NewTable(s1)
	tbl.MustAppend(Tuple{IntValue(1)})
	enc, err := EncodeTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	s2 := MustSchema(Field{"name", String})
	if _, err := DecodeTable(s2, enc); err == nil {
		t.Fatal("expected schema validation error")
	}
}

func TestDecodeTableBadHeader(t *testing.T) {
	if _, err := DecodeTable(MustSchema(Field{"id", Int}), nil); err == nil {
		t.Fatal("expected error on empty input")
	}
}
