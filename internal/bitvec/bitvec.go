// Package bitvec implements fixed-width two-state bit vectors of arbitrary
// width. The Verilog simulator evaluates every expression on these values;
// widths beyond 64 bits matter because VerilogEval-class problems routinely
// use [99:0] and [254:0] vectors.
//
// Values are immutable: every operation returns a fresh vector. All
// operations mask their result to the receiver's width, matching Verilog's
// self-determined truncation semantics.
package bitvec

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a two-state bit vector with an explicit width in bits. The zero
// value is a zero-width vector.
type Vec struct {
	width int
	words []uint64 // little-endian: words[0] holds bits 0..63
}

// New returns a zero vector of the given width. Width 0 is allowed and
// behaves as an empty vector. Negative widths panic: they always indicate a
// bug in the caller's range arithmetic.
func New(width int) Vec {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return Vec{width: width, words: make([]uint64, wordsFor(width))}
}

// FromUint64 builds a vector of the given width holding v truncated to that
// width.
func FromUint64(width int, v uint64) Vec {
	out := New(width)
	if len(out.words) > 0 {
		out.words[0] = v
	}
	out.mask()
	return out
}

// FromWords builds a vector of the given width from little-endian words
// (words[0] holds bits 0..63), truncated to the width; words beyond the
// slice read as zero.
func FromWords(width int, words []uint64) Vec {
	out := New(width)
	copy(out.words, words)
	out.mask()
	return out
}

// Carve returns a vector of the given width backed by the first
// WordsFor(width) words of arena, and the rest of arena. The vector's
// words are capacity-clipped, so vectors carved from one arena never
// share a word: a caller that sums WordsFor over its widths makes one
// allocation for all of them. A fresh arena carves zero vectors.
func Carve(arena []uint64, width int) (Vec, []uint64) {
	n := wordsFor(width)
	return Vec{width: width, words: arena[:n:n]}, arena[n:]
}

// WordsFor returns how many 64-bit words hold a value of the given width.
func WordsFor(width int) int { return wordsFor(width) }

// Word returns word i of v (bits 64i..64i+63), zero past its storage.
func (v Vec) Word(i int) uint64 { return wordAt(v, i) }

func wordsFor(width int) int { return (width + wordBits - 1) / wordBits }

// mask clears any bits above the width in the top word.
func (v *Vec) mask() {
	if v.width == 0 || len(v.words) == 0 {
		return
	}
	rem := v.width % wordBits
	if rem != 0 {
		v.words[len(v.words)-1] &= (1 << rem) - 1
	}
}

// Width returns the vector's width in bits.
func (v Vec) Width() int { return v.width }

// Bit returns bit i (false when i is outside the width, matching Verilog's
// out-of-range read-as-zero in two-state simulation).
func (v Vec) Bit(i int) bool {
	if i < 0 || i >= v.width {
		return false
	}
	return v.words[i/wordBits]>>(i%wordBits)&1 == 1
}

// SetBit returns a copy of v with bit i set to b. Out-of-range indices are
// ignored.
func (v Vec) SetBit(i int, b bool) Vec {
	out := v.clone()
	if i < 0 || i >= v.width {
		return out
	}
	if b {
		out.words[i/wordBits] |= 1 << (i % wordBits)
	} else {
		out.words[i/wordBits] &^= 1 << (i % wordBits)
	}
	return out
}

func (v Vec) clone() Vec {
	out := Vec{width: v.width, words: make([]uint64, len(v.words))}
	copy(out.words, v.words)
	return out
}

// Resize returns v zero-extended or truncated to the new width.
func (v Vec) Resize(width int) Vec {
	out := New(width)
	n := len(out.words)
	if len(v.words) < n {
		n = len(v.words)
	}
	copy(out.words, v.words[:n])
	out.mask()
	return out
}

// PutWords copies v into dst as little-endian words, zero-filling the
// words of dst beyond v and dropping the words of v beyond dst.
func (v Vec) PutWords(dst []uint64) {
	n := copy(dst, v.words)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Uint64 returns the low 64 bits of the vector.
func (v Vec) Uint64() uint64 {
	if len(v.words) == 0 {
		return 0
	}
	return v.words[0]
}

// ShiftCount reads v as the unsigned count of a shift operator: its
// value, or math.MaxInt32 when that is larger (a count at or above a
// vector's width shifts every bit out). A shift operator must not pass
// int(v.Uint64()) instead: counts of 2^63 and above turn negative, which
// Shl and Shr take as a shift the other way (2^63 itself recurses
// without end), and bits above the low 64 are dropped.
func (v Vec) ShiftCount() int {
	for i := 1; i < len(v.words); i++ {
		if v.words[i] != 0 {
			return math.MaxInt32
		}
	}
	if u := v.Uint64(); u < math.MaxInt32 {
		return int(u)
	}
	return math.MaxInt32
}

// Clog2 is the ceiling of log2(u), the value of $clog2 on the low 64
// bits of its argument: 0 for u <= 1, and 64 for every u above 2^63,
// where a doubling loop would never end (1<<64 is 0 in Go).
func Clog2(u uint64) int {
	if u <= 1 {
		return 0
	}
	return bits.Len64(u - 1)
}

// IsZero reports whether every bit is zero.
func (v Vec) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bool returns the Verilog truth value: true iff any bit is set.
func (v Vec) Bool() bool { return !v.IsZero() }

// Eq reports bitwise equality after zero-extension to the wider width.
func (v Vec) Eq(o Vec) bool {
	n := len(v.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(v.words) {
			a = v.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Ult reports v < o as unsigned integers (after zero-extension).
func (v Vec) Ult(o Vec) bool {
	n := len(v.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := n - 1; i >= 0; i-- {
		var a, b uint64
		if i < len(v.words) {
			a = v.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		if a != b {
			return a < b
		}
	}
	return false
}

func binop(a, b Vec, width int, f func(x, y uint64) uint64) Vec {
	out := New(width)
	for i := range out.words {
		var x, y uint64
		if i < len(a.words) {
			x = a.words[i]
		}
		if i < len(b.words) {
			y = b.words[i]
		}
		out.words[i] = f(x, y)
	}
	out.mask()
	return out
}

// And returns the bitwise AND at the wider operand width.
func (v Vec) And(o Vec) Vec {
	return binop(v, o, maxInt(v.width, o.width), func(x, y uint64) uint64 { return x & y })
}

// Or returns the bitwise OR at the wider operand width.
func (v Vec) Or(o Vec) Vec {
	return binop(v, o, maxInt(v.width, o.width), func(x, y uint64) uint64 { return x | y })
}

// Xor returns the bitwise XOR at the wider operand width.
func (v Vec) Xor(o Vec) Vec {
	return binop(v, o, maxInt(v.width, o.width), func(x, y uint64) uint64 { return x ^ y })
}

// Not returns the bitwise complement at v's own width.
func (v Vec) Not() Vec {
	out := New(v.width)
	for i := range out.words {
		out.words[i] = ^v.words[i]
	}
	out.mask()
	return out
}

// Add returns v + o at the wider operand width, with wraparound.
func (v Vec) Add(o Vec) Vec {
	width := maxInt(v.width, o.width)
	out := New(width)
	var carry uint64
	for i := range out.words {
		var x, y uint64
		if i < len(v.words) {
			x = v.words[i]
		}
		if i < len(o.words) {
			y = o.words[i]
		}
		s, c1 := bits.Add64(x, y, carry)
		out.words[i] = s
		carry = c1
	}
	out.mask()
	return out
}

// Sub returns v - o at the wider operand width, with wraparound.
func (v Vec) Sub(o Vec) Vec {
	width := maxInt(v.width, o.width)
	out := New(width)
	var borrow uint64
	for i := range out.words {
		var x, y uint64
		if i < len(v.words) {
			x = v.words[i]
		}
		if i < len(o.words) {
			y = o.words[i]
		}
		d, b1 := bits.Sub64(x, y, borrow)
		out.words[i] = d
		borrow = b1
	}
	out.mask()
	return out
}

// Mul returns v * o truncated to the wider operand width.
func (v Vec) Mul(o Vec) Vec {
	width := maxInt(v.width, o.width)
	out := New(width)
	// Schoolbook multiply, truncating above the result width.
	for i := 0; i < len(v.words) && i < len(out.words); i++ {
		var carry uint64
		x := v.words[i]
		if x == 0 {
			continue
		}
		for j := 0; i+j < len(out.words); j++ {
			var y uint64
			if j < len(o.words) {
				y = o.words[j]
			}
			hi, lo := bits.Mul64(x, y)
			s, c1 := bits.Add64(out.words[i+j], lo, 0)
			s, c2 := bits.Add64(s, carry, 0)
			out.words[i+j] = s
			carry = hi + c1 + c2
		}
	}
	out.mask()
	return out
}

// Shl returns v << n at v's width.
func (v Vec) Shl(n int) Vec {
	if n < 0 {
		return v.Shr(-n)
	}
	out := New(v.width)
	if n >= v.width {
		return out
	}
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := len(out.words) - 1; i >= wordShift; i-- {
		w := v.words[i-wordShift] << bitShift
		if bitShift > 0 && i-wordShift-1 >= 0 {
			w |= v.words[i-wordShift-1] >> (wordBits - bitShift)
		}
		out.words[i] = w
	}
	out.mask()
	return out
}

// Shr returns v >> n (logical) at v's width.
func (v Vec) Shr(n int) Vec {
	if n < 0 {
		return v.Shl(-n)
	}
	out := New(v.width)
	if n >= v.width {
		return out
	}
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := 0; i+wordShift < len(v.words); i++ {
		w := v.words[i+wordShift] >> bitShift
		if bitShift > 0 && i+wordShift+1 < len(v.words) {
			w |= v.words[i+wordShift+1] << (wordBits - bitShift)
		}
		out.words[i] = w
	}
	out.mask()
	return out
}

// Slice returns bits [hi:lo] as a new vector of width hi-lo+1. Bits outside
// v read as zero. Panics when hi < lo: that is a caller bug, and the
// elaborator rejects reversed ranges before simulation.
func (v Vec) Slice(hi, lo int) Vec {
	if hi < lo {
		panic(fmt.Sprintf("bitvec: reversed slice [%d:%d]", hi, lo))
	}
	return v.Shr(lo).Resize(hi - lo + 1)
}

// Concat returns {v, o} — v in the high bits, o in the low bits, matching
// Verilog concatenation order.
func (v Vec) Concat(o Vec) Vec {
	out := New(v.width + o.width)
	for i := 0; i < o.width; i++ {
		if o.Bit(i) {
			out.words[i/wordBits] |= 1 << (i % wordBits)
		}
	}
	for i := 0; i < v.width; i++ {
		if v.Bit(i) {
			j := i + o.width
			out.words[j/wordBits] |= 1 << (j % wordBits)
		}
	}
	return out
}

// Repeat returns v replicated n times ({n{v}}).
func (v Vec) Repeat(n int) Vec {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative replication count %d", n))
	}
	out := New(0)
	for i := 0; i < n; i++ {
		out = out.Concat(v)
	}
	return out
}

// ReduceAnd returns the AND of all bits (width-1 result).
func (v Vec) ReduceAnd() Vec {
	if v.width == 0 {
		return FromUint64(1, 1)
	}
	for i := 0; i < v.width; i++ {
		if !v.Bit(i) {
			return FromUint64(1, 0)
		}
	}
	return FromUint64(1, 1)
}

// ReduceOr returns the OR of all bits (width-1 result).
func (v Vec) ReduceOr() Vec {
	if v.Bool() {
		return FromUint64(1, 1)
	}
	return FromUint64(1, 0)
}

// ReduceXor returns the XOR of all bits (width-1 result).
func (v Vec) ReduceXor() Vec {
	var parity uint64
	for _, w := range v.words {
		parity ^= uint64(bits.OnesCount64(w)) & 1
	}
	return FromUint64(1, parity&1)
}

// PopCount returns the number of set bits.
func (v Vec) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// String renders the vector as a Verilog-style sized binary literal, e.g.
// 4'b0101.
func (v Vec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d'b", v.width)
	if v.width == 0 {
		b.WriteByte('0')
		return b.String()
	}
	for i := v.width - 1; i >= 0; i-- {
		if v.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Hex renders the vector as a Verilog-style sized hex literal, e.g. 8'hf3.
func (v Vec) Hex() string {
	digits := (v.width + 3) / 4
	if digits == 0 {
		digits = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d'h", v.width)
	for i := digits - 1; i >= 0; i-- {
		nibble := v.Shr(i*4).Uint64() & 0xf
		fmt.Fprintf(&b, "%x", nibble)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
