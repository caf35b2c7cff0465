package bitvec

import (
	"math/rand"
	"testing"
)

// TestInPlaceEquivalence checks every destination-passing op against its
// immutable counterpart across a width sweep that crosses word
// boundaries.
func TestInPlaceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{1, 3, 8, 31, 32, 63, 64, 65, 100, 127, 128, 200, 255}
	for _, wa := range widths {
		for trial := 0; trial < 8; trial++ {
			wb := widths[rng.Intn(len(widths))]
			a, b := randVec(rng, wa), randVec(rng, wb)
			wmax := wa
			if wb > wmax {
				wmax = wb
			}

			check := func(name string, got, want Vec) {
				t.Helper()
				if got.Width() != want.Width() || !got.Eq(want) {
					t.Fatalf("%s (wa=%d wb=%d): got %s want %s", name, wa, wb, got, want)
				}
			}

			dst := New(wmax)
			dst.AndOf(a, b)
			check("AndOf", dst, a.And(b))
			dst.OrOf(a, b)
			check("OrOf", dst, a.Or(b))
			dst.XorOf(a, b)
			check("XorOf", dst, a.Xor(b))
			dst.XnorOf(a, b)
			check("XnorOf", dst, a.Xor(b).Not())
			dst.AddOf(a, b)
			check("AddOf", dst, a.Add(b))
			dst.SubOf(a, b)
			check("SubOf", dst, a.Sub(b))
			mul := New(wmax)
			mul.MulOf(a, b)
			check("MulOf", mul, a.Mul(b))

			na := New(wa)
			na.NotOf(a)
			check("NotOf", na, a.Not())
			na.NegOf(a)
			check("NegOf", na, New(wa).Sub(a))

			div := New(wa)
			div.DivLowOf(a, b)
			if b.IsZero() {
				check("DivLowOf/0", div, New(wa))
			} else {
				check("DivLowOf", div, FromUint64(wa, a.Uint64()/b.Uint64()))
			}
			div.ModLowOf(a, b)
			if !b.IsZero() {
				check("ModLowOf", div, FromUint64(wa, a.Uint64()%b.Uint64()))
			}

			for _, n := range []int{0, 1, 7, wa / 2, wa - 1, wa, wa + 3, -3} {
				sh := New(wa)
				sh.ShlOf(a, n)
				check("ShlOf", sh, a.Shl(n))
				sh.ShrOf(a, n)
				check("ShrOf", sh, a.Shr(n))
			}
			// ShrOf doubling as part-select: narrower destination.
			if wa > 4 {
				ps := New(3)
				ps.ShrOf(a, 2)
				check("ShrOf/narrow", ps, a.Shr(2).Resize(3))
			}

			cc := New(wa + wb)
			cc.ConcatOf(a, b)
			check("ConcatOf", cc, a.Concat(b))

			for _, n := range []int{0, 1, 3} {
				rp := New(wa * n)
				rp.RepeatOf(a, n)
				check("RepeatOf", rp, a.Repeat(n))
			}

			cp := New(wb)
			cp.CopyResize(a)
			check("CopyResize", cp, a.Resize(wb))

			if a.AllOnes() != a.ReduceAnd().Bool() {
				t.Fatalf("AllOnes(w=%d) = %v disagrees with ReduceAnd", wa, a.AllOnes())
			}
		}
	}
}

func TestInPlaceSettersAndZero(t *testing.T) {
	v := New(100)
	v.SetUint64(0xDEADBEEFCAFE)
	if v.Uint64() != 0xDEADBEEFCAFE || v.PopCount() != FromUint64(100, 0xDEADBEEFCAFE).PopCount() {
		t.Fatal("SetUint64 wrong")
	}
	v.SetBitInPlace(99, true)
	if !v.Bit(99) {
		t.Fatal("SetBitInPlace high bit")
	}
	v.SetBitInPlace(120, true) // out of range: ignored
	v.SetBitInPlace(-1, true)
	v.Zero()
	if !v.IsZero() {
		t.Fatal("Zero must clear everything")
	}
	v.SetBool(true)
	if v.Uint64() != 1 {
		t.Fatal("SetBool")
	}
	// width truncation on narrow vectors
	n := New(3)
	n.SetUint64(0xFF)
	if n.Uint64() != 7 {
		t.Fatalf("SetUint64 must mask to width: %d", n.Uint64())
	}
}

// TestInPlaceZeroAllocs proves the hot-path contract: none of the
// destination-passing ops allocate.
func TestInPlaceZeroAllocs(t *testing.T) {
	a, b := FromUint64(64, 0x1234), FromUint64(64, 0x77)
	wideA, wideB := New(255), New(255)
	wideA.SetUint64(5)
	wideB.SetUint64(9)
	dst, wdst := New(64), New(255)
	words := make([]uint64, 4)
	allocs := testing.AllocsPerRun(100, func() {
		dst.AddOf(a, b)
		dst.AndOf(a, b)
		dst.MulOf(a, b)
		dst.ShlOf(a, 3)
		wdst.AddOf(wideA, wideB)
		wdst.XorOf(wideA, wideB)
		wdst.ShrOf(wideA, 100)
		wdst.CopyResize(a)
		wdst.SetWords(words)
		dst.SetWords(words)
		_ = wdst.EqWords(words)
		wideA.PutWords(words)
	})
	if allocs != 0 {
		t.Fatalf("in-place ops allocated %.1f/op", allocs)
	}
}

// TestWordsRoundTrip: FromWords, SetWords, PutWords and EqWords agree
// with FromUint64, CopyResize and Eq, truncating and zero-extending the
// same way.
func TestWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{1, 7, 64, 65, 130, 255} {
		v := randVec(rng, w)
		words := make([]uint64, WordsFor(w))
		v.PutWords(words)
		if got := FromWords(w, words); got.Width() != w || !got.Eq(v) {
			t.Fatalf("width %d: FromWords(PutWords(v)) = %s, want %s", w, got.Hex(), v.Hex())
		}
		if !v.EqWords(words) || !v.EqWords(append(words, 0)) {
			t.Fatalf("width %d: EqWords rejects v's own words", w)
		}
		if v.EqWords(append(append([]uint64(nil), words...), 1)) {
			t.Fatalf("width %d: EqWords ignores a set bit beyond v", w)
		}
		for _, dw := range []int{1, 63, 64, 100, 300} {
			want, got := New(dw), New(dw)
			want.CopyResize(v)
			got.SetWords(words)
			if !got.Eq(want) {
				t.Fatalf("width %d into %d: SetWords = %s, CopyResize = %s", w, dw, got.Hex(), want.Hex())
			}
			short := make([]uint64, 1)
			v.PutWords(short)
			if short[0] != v.Uint64() {
				t.Fatalf("width %d: PutWords into one word = %x, want %x", w, short[0], v.Uint64())
			}
		}
	}
}

// TestCarve: vectors carved from one arena take exactly their words,
// capacity-clipped, so writing one never touches its neighbours, no two
// of them alias, and in-place ops over carved operands equal the
// allocating ops.
func TestCarve(t *testing.T) {
	widths := []int{1, 0, 64, 65, 130, 7}
	n := 0
	for _, w := range widths {
		n += WordsFor(w)
	}
	arena := make([]uint64, n)
	vs := make([]Vec, len(widths))
	rest := arena
	for i, w := range widths {
		vs[i], rest = Carve(rest, w)
		if vs[i].Width() != w || len(vs[i].words) != WordsFor(w) || cap(vs[i].words) != len(vs[i].words) {
			t.Fatalf("Carve(%d): width %d, %d words, cap %d", w, vs[i].Width(), len(vs[i].words), cap(vs[i].words))
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d words left over", len(rest))
	}
	for i := range vs {
		vs[i].NotOf(vs[i]) // all ones
		for j := range vs {
			if j != i && !vs[j].IsZero() {
				t.Fatalf("writing vector %d changed vector %d", i, j)
			}
			if j != i && vs[i].aliases(vs[j]) {
				t.Fatalf("vectors %d and %d alias", i, j)
			}
		}
		vs[i].Zero()
	}
	a, b, dst := vs[3], vs[4], vs[2]
	a.SetUint64(0xdead_beef)
	b.NotOf(b)
	dst.ConcatOf(a, b)
	if want := a.Concat(b).Resize(64); !dst.Eq(want) {
		t.Fatalf("ConcatOf over carved vectors = %s, want %s", dst.Hex(), want.Hex())
	}
}
