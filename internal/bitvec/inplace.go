package bitvec

import "math/bits"

// This file is the destination-passing half of the package: every method
// writes its result into the receiver's existing backing storage instead of
// allocating a fresh vector. The compiled simulation engine
// (internal/sim) preallocates one Vec per register at build time and runs
// steady-state cycles through these methods with zero heap allocations;
// single-word (width <= 64) vectors take branch-free fast paths.
//
// Contracts shared by all methods here:
//
//   - The receiver's width is fixed; results are truncated or
//     zero-extended to it, exactly as the immutable operation of the same
//     name would produce at that width.
//   - Operands are read-only, but every method tolerates the receiver
//     aliasing an operand (sharing its backing storage): the word-wise ops
//     read each operand word before overwriting it, the shifts iterate in
//     the direction that keeps unread words intact, and the remaining ops
//     (MulOf, ConcatOf, RepeatOf, StoreSliceOf) detect aliasing and
//     snapshot the operand first — the copy-on-alias the simulator's
//     differential fuzzer exists to police. Self-aliased results are
//     bit-identical to the allocating op of the same name.
//   - The non-aliased paths never allocate. Copy-on-alias paths may spill
//     to the heap for very wide operands (beyond aliasBufWords words) —
//     the compiled engine's register allocator copies aliased stores at
//     compile time, so its steady state never takes those paths. Callers
//     that share a Vec (e.g. values returned from Simulator.Get) must
//     still copy before mutating.

// Zero clears every bit in place.
func (v *Vec) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// SetUint64 sets the vector to u truncated to its width, in place.
func (v *Vec) SetUint64(u uint64) {
	if len(v.words) == 0 {
		return
	}
	v.words[0] = u
	for i := 1; i < len(v.words); i++ {
		v.words[i] = 0
	}
	v.mask()
}

// SetBool sets the vector to 1 or 0, in place.
func (v *Vec) SetBool(b bool) {
	if b {
		v.SetUint64(1)
	} else {
		v.SetUint64(0)
	}
}

// CopyResize copies o into v, zero-extending or truncating to v's width —
// the in-place form of o.Resize(v.Width()). Alias-safe.
func (v *Vec) CopyResize(o Vec) {
	n := len(v.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	copy(v.words, o.words[:n])
	for i := n; i < len(v.words); i++ {
		v.words[i] = 0
	}
	v.mask()
}

// SetWords sets v to the value held in little-endian words, truncated or
// zero-extended to v's width: CopyResize from raw words.
func (v *Vec) SetWords(words []uint64) {
	n := copy(v.words, words)
	for i := n; i < len(v.words); i++ {
		v.words[i] = 0
	}
	v.mask()
}

// EqWords reports whether v equals the value held in little-endian
// words after zero-extension to the wider of the two: Eq against raw
// words.
func (v Vec) EqWords(words []uint64) bool {
	n := len(v.words)
	if len(words) > n {
		n = len(words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(v.words) {
			a = v.words[i]
		}
		if i < len(words) {
			b = words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// SetBitInPlace sets bit i to b. Out-of-range indices are ignored,
// matching Vec.SetBit.
func (v *Vec) SetBitInPlace(i int, b bool) {
	if i < 0 || i >= v.width {
		return
	}
	if b {
		v.words[i/wordBits] |= 1 << (i % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (i % wordBits)
	}
}

// wordAt reads word i of o, zero-extending past its storage.
func wordAt(o Vec, i int) uint64 {
	if i < len(o.words) {
		return o.words[i]
	}
	return 0
}

// aliasBufWords sizes the stack scratch used by copy-on-alias paths: 512
// bits covers every signal in the corpus without allocating.
const aliasBufWords = 8

// aliases reports whether v and o share backing storage. Vectors are
// allocated whole (the package never subslices words), so identity of the
// first word identifies identity of the whole array.
func (v *Vec) aliases(o Vec) bool {
	return len(v.words) > 0 && len(o.words) > 0 && &v.words[0] == &o.words[0]
}

// unalias returns o, or a snapshot of o taken before v is mutated when o
// shares v's storage. The snapshot lives in buf when it fits (keeping the
// common aliased widths allocation-free) and on the heap otherwise.
func (v *Vec) unalias(o Vec, buf *[aliasBufWords]uint64) Vec {
	if !v.aliases(o) {
		return o
	}
	var w []uint64
	if len(o.words) <= len(buf) {
		w = buf[:len(o.words)]
	} else {
		w = make([]uint64, len(o.words))
	}
	copy(w, o.words)
	return Vec{width: o.width, words: w}
}

// AndOf sets v = a & b (zero-extended to v's width).
func (v *Vec) AndOf(a, b Vec) {
	if len(v.words) == 1 {
		v.words[0] = wordAt(a, 0) & wordAt(b, 0)
		v.mask()
		return
	}
	for i := range v.words {
		v.words[i] = wordAt(a, i) & wordAt(b, i)
	}
	v.mask()
}

// OrOf sets v = a | b.
func (v *Vec) OrOf(a, b Vec) {
	if len(v.words) == 1 {
		v.words[0] = wordAt(a, 0) | wordAt(b, 0)
		v.mask()
		return
	}
	for i := range v.words {
		v.words[i] = wordAt(a, i) | wordAt(b, i)
	}
	v.mask()
}

// XorOf sets v = a ^ b.
func (v *Vec) XorOf(a, b Vec) {
	if len(v.words) == 1 {
		v.words[0] = wordAt(a, 0) ^ wordAt(b, 0)
		v.mask()
		return
	}
	for i := range v.words {
		v.words[i] = wordAt(a, i) ^ wordAt(b, i)
	}
	v.mask()
}

// XnorOf sets v = ~(a ^ b) at v's width.
func (v *Vec) XnorOf(a, b Vec) {
	for i := range v.words {
		v.words[i] = ^(wordAt(a, i) ^ wordAt(b, i))
	}
	v.mask()
}

// NotOf sets v = ~a at v's width.
func (v *Vec) NotOf(a Vec) {
	for i := range v.words {
		v.words[i] = ^wordAt(a, i)
	}
	v.mask()
}

// AddOf sets v = a + b with wraparound at v's width.
func (v *Vec) AddOf(a, b Vec) {
	if len(v.words) == 1 {
		v.words[0] = wordAt(a, 0) + wordAt(b, 0)
		v.mask()
		return
	}
	var carry uint64
	for i := range v.words {
		s, c := bits.Add64(wordAt(a, i), wordAt(b, i), carry)
		v.words[i] = s
		carry = c
	}
	v.mask()
}

// SubOf sets v = a - b with wraparound at v's width.
func (v *Vec) SubOf(a, b Vec) {
	if len(v.words) == 1 {
		v.words[0] = wordAt(a, 0) - wordAt(b, 0)
		v.mask()
		return
	}
	var borrow uint64
	for i := range v.words {
		d, bo := bits.Sub64(wordAt(a, i), wordAt(b, i), borrow)
		v.words[i] = d
		borrow = bo
	}
	v.mask()
}

// NegOf sets v = -a (two's complement) at v's width.
func (v *Vec) NegOf(a Vec) {
	if len(v.words) == 1 {
		v.words[0] = -wordAt(a, 0)
		v.mask()
		return
	}
	var borrow uint64
	for i := range v.words {
		d, bo := bits.Sub64(0, wordAt(a, i), borrow)
		v.words[i] = d
		borrow = bo
	}
	v.mask()
}

// MulOf sets v = a * b truncated to v's width. Copy-on-alias: the
// accumulation reads operand words after writing result words, so aliased
// operands are snapshotted first.
func (v *Vec) MulOf(a, b Vec) {
	if len(v.words) == 1 {
		v.words[0] = wordAt(a, 0) * wordAt(b, 0)
		v.mask()
		return
	}
	var bufA, bufB [aliasBufWords]uint64
	a = v.unalias(a, &bufA)
	b = v.unalias(b, &bufB)
	v.Zero()
	for i := 0; i < len(a.words) && i < len(v.words); i++ {
		x := a.words[i]
		if x == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < len(v.words); j++ {
			hi, lo := bits.Mul64(x, wordAt(b, j))
			s, c1 := bits.Add64(v.words[i+j], lo, 0)
			s, c2 := bits.Add64(s, carry, 0)
			v.words[i+j] = s
			carry = hi + c1 + c2
		}
	}
	v.mask()
}

// DivLowOf sets v to the walker's division semantics: zero when b is all
// zeros, else the low-64-bit quotient a.Uint64()/b.Uint64() at v's width.
func (v *Vec) DivLowOf(a, b Vec) {
	if b.IsZero() {
		v.Zero()
		return
	}
	v.SetUint64(a.Uint64() / b.Uint64())
}

// ModLowOf sets v to the low-64-bit remainder, zero when b is all zeros.
func (v *Vec) ModLowOf(a, b Vec) {
	if b.IsZero() {
		v.Zero()
		return
	}
	v.SetUint64(a.Uint64() % b.Uint64())
}

// ShlOf sets v = a << n at v's width (v.width == a.width in every engine
// use). Negative n shifts right, matching Vec.Shl. Self-aliasing (v == a)
// is safe: the descending word iteration writes each position after every
// read of a lower position it depends on.
func (v *Vec) ShlOf(a Vec, n int) {
	if n < 0 {
		v.ShrOf(a, -n)
		return
	}
	if n >= v.width {
		v.Zero()
		return
	}
	if len(v.words) == 1 {
		v.words[0] = wordAt(a, 0) << uint(n)
		v.mask()
		return
	}
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := len(v.words) - 1; i >= 0; i-- {
		var w uint64
		if i >= wordShift {
			w = wordAt(a, i-wordShift) << bitShift
			if bitShift > 0 && i-wordShift-1 >= 0 {
				w |= wordAt(a, i-wordShift-1) >> (wordBits - bitShift)
			}
		}
		v.words[i] = w
	}
	v.mask()
}

// ShrOf sets v = a >> n (logical) truncated/extended to v's width. Unlike
// ShlOf it supports v.width != a.width, which makes it double as the
// part-select read primitive (a.Shr(lo).Resize(w)). Self-aliasing (v == a)
// is safe: the ascending iteration only reads words at or above the write
// position, before that position is overwritten.
func (v *Vec) ShrOf(a Vec, n int) {
	if n < 0 {
		v.ShlOf(a, -n)
		return
	}
	if n >= a.width {
		v.Zero()
		return
	}
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := range v.words {
		w := wordAt(a, i+wordShift) >> bitShift
		if bitShift > 0 {
			w |= wordAt(a, i+wordShift+1) << (wordBits - bitShift)
		}
		v.words[i] = w
	}
	// Bits of a above its own width are zero by invariant, so no masking
	// against a.width is needed; mask to v's width only.
	v.mask()
}

// ConcatOf sets v = {a, b} (a in the high bits). v's width must be
// a.Width()+b.Width(). Copy-on-alias: aliasing v==a is absorbed by ShlOf;
// an aliased b is snapshotted before the shift clobbers its words.
func (v *Vec) ConcatOf(a, b Vec) {
	if len(v.words) == 1 {
		v.words[0] = wordAt(b, 0) | wordAt(a, 0)<<uint(b.width)
		v.mask()
		return
	}
	var bufB [aliasBufWords]uint64
	b = v.unalias(b, &bufB)
	v.ShlOf(a, b.width) // zero-fills the low words
	for i := range b.words {
		v.words[i] |= b.words[i]
	}
	v.mask()
}

// RepeatOf sets v = {n{a}}. v's width must be n*a.Width(). Copy-on-alias:
// an aliased a is snapshotted before the initial Zero erases it.
func (v *Vec) RepeatOf(a Vec, n int) {
	var bufA [aliasBufWords]uint64
	a = v.unalias(a, &bufA)
	v.Zero()
	if a.width == 0 {
		return
	}
	for r := 0; r < n; r++ {
		off := r * a.width
		wordShift, bitShift := off/wordBits, uint(off%wordBits)
		for i := 0; i < len(a.words); i++ {
			j := i + wordShift
			if j >= len(v.words) {
				break
			}
			v.words[j] |= a.words[i] << bitShift
			if bitShift > 0 && j+1 < len(v.words) {
				v.words[j+1] |= a.words[i] >> (wordBits - bitShift)
			}
		}
	}
	v.mask()
}

// StoreSliceOf writes w bits of src into v starting at bit lo — the
// part-select store primitive (q[lo+w-1:lo] = src). Positions outside v's
// width are dropped, matching the simulator's out-of-range write
// semantics. It reports whether any stored bit changed. Copy-on-alias:
// when src shares v's storage (q[4:1] = q), the source is snapshotted
// first, so every source bit reads the pre-store value exactly as the
// walker's immutable evaluation does.
func (v *Vec) StoreSliceOf(src Vec, lo, w int) bool {
	var buf [aliasBufWords]uint64
	src = v.unalias(src, &buf)
	changed := false
	width := v.width
	for i := 0; i < w; i++ {
		pos := lo + i
		if pos < 0 || pos >= width {
			continue
		}
		nb := src.Bit(i)
		if v.Bit(pos) != nb {
			v.SetBitInPlace(pos, nb)
			changed = true
		}
	}
	return changed
}

// EqResized reports whether o.Resize(v.Width()) would equal v — the
// compare half of a change-detecting store, without materializing the
// resized copy.
func (v Vec) EqResized(o Vec) bool {
	if len(v.words) == 0 {
		return true
	}
	last := len(v.words) - 1
	for i := 0; i < last; i++ {
		if v.words[i] != wordAt(o, i) {
			return false
		}
	}
	ow := wordAt(o, last)
	if rem := v.width % wordBits; rem != 0 {
		ow &= uint64(1)<<rem - 1
	}
	return v.words[last] == ow
}

// AllOnes reports whether every bit inside the width is set (the AND
// reduction). Width-0 vectors reduce to true, matching Vec.ReduceAnd.
func (v Vec) AllOnes() bool {
	if v.width == 0 {
		return true
	}
	full := v.width / wordBits
	for i := 0; i < full; i++ {
		if v.words[i] != ^uint64(0) {
			return false
		}
	}
	rem := v.width % wordBits
	if rem != 0 {
		want := uint64(1)<<rem - 1
		if v.words[len(v.words)-1]&want != want {
			return false
		}
	}
	return true
}
