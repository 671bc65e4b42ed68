package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// The binary encoding is a compact, self-describing row format:
// each value is a 1-byte type tag followed by a fixed 8-byte payload
// (Int, Float), a single byte (Bool), or a uvarint length plus bytes
// (String). It exists for two reasons: the engines account
// serialization costs in real encoded bytes rather than guesses, and a
// lossless round trip is an easily property-tested invariant.

const (
	tagInt    = 0x01
	tagFloat  = 0x02
	tagString = 0x03
	tagBool   = 0x04
)

// EncodeTuple appends the encoding of t to dst and returns the
// extended slice.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		switch v.Kind() {
		case Int:
			dst = binary.LittleEndian.AppendUint64(append(dst, tagInt), v.n)
		case Float:
			dst = binary.LittleEndian.AppendUint64(append(dst, tagFloat), v.n)
		case Bool:
			dst = append(dst, tagBool, byte(v.n))
		default:
			dst = binary.AppendUvarint(append(dst, tagString), v.n)
			dst = append(dst, v.Str()...)
		}
	}
	return dst
}

// uvarintCanon decodes a uvarint, rejecting non-minimal encodings (the
// encoder only ever emits minimal ones, and accepting padded forms
// would let two different byte strings carry the same tuple — poison
// for digest-keyed lineage).
func uvarintCanon(src []byte) (uint64, int) {
	v, read := binary.Uvarint(src)
	if read > 0 && read != uvarintLen(v) {
		return 0, 0
	}
	return v, read
}

// DecodeTuple decodes one tuple from src, returning the tuple and the
// number of bytes consumed.
func DecodeTuple(src []byte) (Tuple, int, error) {
	n, read := uvarintCanon(src)
	if read <= 0 {
		return nil, 0, fmt.Errorf("relation: decode: bad tuple header")
	}
	off := read
	// Cap the preallocation by what the buffer can hold (every value
	// costs at least two bytes); a corrupt header must not allocate.
	capHint := n
	if max := uint64(len(src)-off) / 2; capHint > max {
		capHint = max
	}
	t := make(Tuple, 0, capHint)
	for i := uint64(0); i < n; i++ {
		if off >= len(src) {
			return nil, 0, fmt.Errorf("relation: decode: truncated at value %d", i)
		}
		tag := src[off]
		off++
		switch tag {
		case tagInt:
			if off+8 > len(src) {
				return nil, 0, fmt.Errorf("relation: decode: truncated int")
			}
			t = append(t, IntValue(int64(binary.LittleEndian.Uint64(src[off:]))))
			off += 8
		case tagFloat:
			if off+8 > len(src) {
				return nil, 0, fmt.Errorf("relation: decode: truncated float")
			}
			t = append(t, FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))))
			off += 8
		case tagString:
			l, r := uvarintCanon(src[off:])
			if r <= 0 {
				return nil, 0, fmt.Errorf("relation: decode: bad string length")
			}
			off += r
			// Compare in uint64 space: int(l) of a 64-bit length can wrap
			// negative and slip past an additive bounds check.
			if l > uint64(len(src)-off) {
				return nil, 0, fmt.Errorf("relation: decode: truncated string")
			}
			t = append(t, StringValue(string(src[off:off+int(l)])))
			off += int(l)
		case tagBool:
			if off >= len(src) {
				return nil, 0, fmt.Errorf("relation: decode: truncated bool")
			}
			// The encoder emits exactly 0 or 1; accepting other bytes would
			// break the decode-reencode round trip.
			if src[off] > 1 {
				return nil, 0, fmt.Errorf("relation: decode: bad bool byte 0x%02x", src[off])
			}
			t = append(t, BoolValue(src[off] == 1))
			off++
		default:
			return nil, 0, fmt.Errorf("relation: decode: unknown tag 0x%02x", tag)
		}
	}
	return t, off, nil
}

// EncodedSize returns the number of bytes EncodeTuple would produce,
// without allocating the encoding.
func EncodedSize(t Tuple) int64 {
	return int64(uvarintLen(uint64(len(t)))) + cellBytes(t)
}

// cellBytes is EncodedSize without the row's length header.
func cellBytes(t Tuple) (size int64) {
	for _, v := range t {
		switch v.Kind() {
		case Int, Float:
			size += 9
		case Bool:
			size += 2
		default:
			size += 1 + int64(uvarintLen(v.n)) + int64(v.n)
		}
	}
	return size
}

// Encoder reuses one grow-once buffer across encode calls. Get one
// from GetEncoder and return it with Release; the pooling removes the
// per-tuple buffer allocation from hot byte-accounting loops.
type Encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 1024)} },
}

// GetEncoder fetches a pooled encoder.
func GetEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// Release returns the encoder (and its buffer) to the pool. The slices
// returned by EncodeTuple become invalid.
func (e *Encoder) Release() {
	encoderPool.Put(e)
}

// EncodeTuple encodes one tuple into the encoder's buffer and returns
// the encoding, valid until the next call or Release.
func (e *Encoder) EncodeTuple(t Tuple) []byte {
	b := EncodeTuple(e.buf[:0], t)
	e.buf = b[:0]
	return b
}

// EncodeTable encodes all rows of a table, prefixed with a row count.
// The output buffer is sized exactly up front, so the call performs a
// single allocation however many rows the table has. Every cell is
// encodable, so the error is always nil; it stays for the benchmark's
// call site.
func EncodeTable(t *Table) ([]byte, error) {
	kstats.encode.Add(1)
	out := make([]byte, 0, TableBytes(t))
	out = binary.AppendUvarint(out, uint64(t.Len()))
	for _, r := range t.Rows() {
		out = EncodeTuple(out, r)
	}
	return out, nil
}

// Digest returns a deterministic FNV-1a hash over a table's schema and
// encoded rows — the cheap fingerprint the golden-determinism tests
// compare across runs. It uses a pooled encoder, so digesting does not
// allocate per row.
func Digest(t *Table) uint64 {
	h := FNVMixString(FNVOffset64, t.Schema().String())
	enc := GetEncoder()
	defer enc.Release()
	for _, r := range t.Rows() {
		h = FNVMix(h, enc.EncodeTuple(r))
	}
	return h
}

// DecodeTable decodes a table encoded by EncodeTable. The caller
// supplies the schema (the format is schema-less, like a batch body).
func DecodeTable(s *Schema, src []byte) (*Table, error) {
	n, read := uvarintCanon(src)
	if read <= 0 {
		return nil, fmt.Errorf("relation: decode table: bad header")
	}
	off := read
	t := NewTable(s)
	for i := uint64(0); i < n; i++ {
		row, consumed, err := DecodeTuple(src[off:])
		if err != nil {
			return nil, fmt.Errorf("relation: decode table row %d: %w", i, err)
		}
		if err := row.Validate(s); err != nil {
			return nil, fmt.Errorf("relation: decode table row %d: %w", i, err)
		}
		off += consumed
		t.AppendUnchecked(row)
	}
	return t, nil
}

// TableBytes returns the encoded size of the whole table without
// building the encoding.
func TableBytes(t *Table) int64 {
	size := int64(uvarintLen(uint64(t.Len())))
	for _, r := range t.Rows() {
		size += EncodedSize(r)
	}
	return size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
