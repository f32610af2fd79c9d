// Package bitvec provides the bit-level storage primitives shared by the
// Pauli-string encoding layer and the conflict-construction kernel: Vec packs
// 3-bit groups (one Pauli character each) into 64-bit words so the
// anticommutation parity test reduces to AND + popcount across whole words,
// and Bits is a plain one-bit-per-index set used for O(1) membership tests
// with cheap targeted clearing (the palette-bucket kernel's pair
// deduplication).
package bitvec

import "math/bits"

// WordBits is the number of usable bits per word. Only 63 of the 64 bits are
// used so that a word always holds a whole number of 3-bit groups.
const WordBits = 63

// GroupBits is the width of one packed group (one Pauli character).
const GroupBits = 3

// GroupsPerWord is the number of 3-bit groups stored in one word.
const GroupsPerWord = WordBits / GroupBits // 21

// Vec is a little-endian vector of 3-bit groups packed into uint64 words.
type Vec []uint64

// WordsFor returns the number of words needed to store n 3-bit groups.
func WordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + GroupsPerWord - 1) / GroupsPerWord
}

// New returns a zeroed vector capable of holding n groups.
func New(n int) Vec {
	return make(Vec, WordsFor(n))
}

// SetGroup stores the low 3 bits of v as group i.
func (b Vec) SetGroup(i int, v uint8) {
	word, shift := i/GroupsPerWord, uint(i%GroupsPerWord)*GroupBits
	b[word] = b[word]&^(uint64(0b111)<<shift) | uint64(v&0b111)<<shift
}

// Group returns group i as a 3-bit value.
func (b Vec) Group(i int) uint8 {
	word, shift := i/GroupsPerWord, uint(i%GroupsPerWord)*GroupBits
	return uint8(b[word]>>shift) & 0b111
}

// AndPopcount returns popcount(a AND b) summed across all words. The two
// vectors must have the same length.
func AndPopcount(a, b Vec) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// AndParity reports whether popcount(a AND b) is odd. This is the hot path
// of the anticommutation test. Popcount parity is XOR-linear —
// parity(popcount(x ^ y)) = parity(popcount x) ⊕ parity(popcount y) — so the
// AND words are XOR-folded into a single accumulator and one OnesCount64 at
// the end decides the parity, instead of a popcount per word.
func AndParity(a, b Vec) bool {
	var acc uint64
	for i, w := range a {
		acc ^= w & b[i]
	}
	return bits.OnesCount64(acc)&1 == 1
}

// Popcount returns the total number of set bits.
func (b Vec) Popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of the vector.
func (b Vec) Clone() Vec {
	c := make(Vec, len(b))
	copy(c, b)
	return c
}

// Equal reports whether two vectors have identical words.
func Equal(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Bits is a plain bitset over indices [0, n): one bit per index, packed into
// 64-bit words. Unlike Vec it carries no group structure. Callers that test
// few distinct indices per round should clear exactly the bits they set
// (Clear) rather than zeroing the whole set — that keeps per-round cost
// proportional to the indices touched, not to n.
type Bits []uint64

// NewBits returns a zeroed bitset capable of holding n indices.
func NewBits(n int) Bits {
	if n <= 0 {
		return nil
	}
	return make(Bits, (n+63)/64)
}

// Set marks index i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear unmarks index i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Test reports whether index i is marked.
func (b Bits) Test(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Drain appends every marked index in the words covering [lo, hi] to dst in
// ascending order and zeroes those words. Its cost is one word read per 64
// indices of the span plus one step per marked index.
func (b Bits) Drain(lo, hi int, dst []int32) []int32 {
	for w := lo >> 6; w <= hi>>6; w++ {
		word := b[w]
		if word == 0 {
			continue
		}
		b[w] = 0
		base := int32(w << 6)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// Bytes returns the backing-array footprint.
func (b Bits) Bytes() int64 { return int64(cap(b)) * 8 }
