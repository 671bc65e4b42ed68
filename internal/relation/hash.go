package relation

import "math"

// FNV-1a primitives shared by Digest and by the lineage fingerprint
// layer. Exporting the constants (rather than each caller re-declaring
// them) keeps every content hash in the repo on the same function, so a
// table digest folded into a lineage fingerprint mixes consistently.

const (
	// FNVOffset64 is the FNV-1a 64-bit offset basis.
	FNVOffset64 uint64 = 14695981039346269563
	// FNVPrime64 is the FNV-1a 64-bit prime.
	FNVPrime64 uint64 = 1099511628211
)

// FNVMix folds b into the running FNV-1a hash h.
func FNVMix(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= FNVPrime64
	}
	return h
}

// FNVMixString folds s into h without allocating.
func FNVMixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= FNVPrime64
	}
	return h
}

// FNVMixUint64 folds v into h byte by byte, little-endian.
func FNVMixUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= FNVPrime64
		v >>= 8
	}
	return h
}

// Canonical tuple hashing. hashTupleCanon/equalTupleCanon replace the
// Tuple.Key canonical-string encoding on the row-path hot spots
// (Distinct, GroupBy, EqualUnordered): rows bucket by a uint64 FNV hash
// instead of an allocated key string, and bucket collisions resolve by
// canonical value equality. "Canonical" mirrors Key's equivalence
// classes exactly — every NaN is one value (FormatFloat renders them
// all "NaN"), while +0 and -0 stay distinct ("0" vs "-0") — so the
// groups, the kept-first rows, and therefore the output bits are
// identical to the string-keyed implementation.

// canonNaNBits is the single bit pattern all NaNs hash as.
const canonNaNBits uint64 = 0x7ff8_dead_beef_0000

// canonFloatBits collapses every NaN to one pattern and otherwise
// returns the IEEE bits (keeping -0 distinct from +0, like FormatFloat).
func canonFloatBits(f float64) uint64 {
	if f != f {
		return canonNaNBits
	}
	return math.Float64bits(f)
}

// hashValueCanon folds one tagged value into h. Tags keep int64(1),
// "1" and true from colliding, mirroring Key's type prefixes.
func hashValueCanon(h uint64, v Value) uint64 {
	switch v.Kind() {
	case Int:
		h ^= 'i'
		h *= FNVPrime64
		return FNVMixUint64(h, uint64(v.Int()))
	case Float:
		h ^= 'f'
		h *= FNVPrime64
		return FNVMixUint64(h, canonFloatBits(v.Float()))
	case Bool:
		h ^= 'b'
		h *= FNVPrime64
		if v.Bool() {
			h ^= 1
		}
		return h * FNVPrime64
	}
	s := v.Str()
	h ^= 's'
	h *= FNVPrime64
	h = FNVMixUint64(h, uint64(len(s)))
	return FNVMixString(h, s)
}

// hashTupleCanon hashes the values at the given positions.
func hashTupleCanon(t Tuple, pos []int) uint64 {
	h := FNVOffset64
	for _, p := range pos {
		h = hashValueCanon(h, t[p])
	}
	return h
}

// equalValueCanon is the equality matching hashValueCanon: kinds must
// match, all NaNs are equal and -0 is unequal to +0.
func equalValueCanon(a, b Value) bool {
	if a.Kind() == Float && b.Kind() == Float {
		return canonFloatBits(a.Float()) == canonFloatBits(b.Float())
	}
	return a.Equal(b)
}

// equalTupleCanon compares the values at the given positions.
func equalTupleCanon(a, b Tuple, pos []int) bool {
	for _, p := range pos {
		if !equalValueCanon(a[p], b[p]) {
			return false
		}
	}
	return true
}
