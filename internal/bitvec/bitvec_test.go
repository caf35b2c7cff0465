package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromUint64Masks(t *testing.T) {
	v := FromUint64(4, 0xFF)
	if v.Uint64() != 0xF {
		t.Fatalf("got %x, want f", v.Uint64())
	}
}

func TestBitAndSetBit(t *testing.T) {
	v := New(100)
	v = v.SetBit(99, true)
	if !v.Bit(99) || v.Bit(98) {
		t.Fatal("SetBit(99) wrong")
	}
	v = v.SetBit(99, false)
	if !v.IsZero() {
		t.Fatal("clearing bit 99 should zero the vector")
	}
	// out-of-range set is ignored
	v = v.SetBit(100, true)
	if !v.IsZero() {
		t.Fatal("out-of-range SetBit must be ignored")
	}
}

func TestAddSubWraparound(t *testing.T) {
	a := FromUint64(8, 200)
	b := FromUint64(8, 100)
	if got := a.Add(b).Uint64(); got != (300 & 0xFF) {
		t.Fatalf("8-bit 200+100 = %d, want %d", got, 300&0xFF)
	}
	if got := b.Sub(a).Uint64(); got != uint64((100-200)&0xFF) {
		t.Fatalf("8-bit 100-200 = %d, want %d", got, (100-200)&0xFF)
	}
}

func TestWideAddCarries(t *testing.T) {
	// 2^64 - 1 + 1 must carry into the second word.
	a := FromUint64(128, ^uint64(0))
	b := FromUint64(128, 1)
	sum := a.Add(b)
	if sum.Uint64() != 0 || !sum.Bit(64) {
		t.Fatalf("128-bit carry failed: %s", sum.Hex())
	}
}

func TestShlShrAcrossWords(t *testing.T) {
	v := FromUint64(128, 1)
	v = v.Shl(100)
	if !v.Bit(100) || v.PopCount() != 1 {
		t.Fatalf("Shl(100) wrong: %s", v.Hex())
	}
	v = v.Shr(100)
	if v.Uint64() != 1 || v.PopCount() != 1 {
		t.Fatalf("Shr(100) wrong: %s", v.Hex())
	}
}

func TestConcatOrder(t *testing.T) {
	hi := FromUint64(4, 0xA)
	lo := FromUint64(4, 0x5)
	c := hi.Concat(lo)
	if c.Width() != 8 || c.Uint64() != 0xA5 {
		t.Fatalf("{4'hA,4'h5} = %s, want 8'ha5", c.Hex())
	}
}

func TestRepeat(t *testing.T) {
	v := FromUint64(2, 0b10)
	r := v.Repeat(3)
	if r.Width() != 6 || r.Uint64() != 0b101010 {
		t.Fatalf("{3{2'b10}} = %s", r)
	}
	if v.Repeat(0).Width() != 0 {
		t.Fatal("zero repetition must be empty")
	}
}

func TestSlice(t *testing.T) {
	v := FromUint64(16, 0xABCD)
	s := v.Slice(11, 4)
	if s.Width() != 8 || s.Uint64() != 0xBC {
		t.Fatalf("0xABCD[11:4] = %s, want bc", s.Hex())
	}
}

func TestReduceOps(t *testing.T) {
	all1 := FromUint64(4, 0xF)
	mixed := FromUint64(4, 0x5)
	zero := New(4)
	if !all1.ReduceAnd().Bool() || mixed.ReduceAnd().Bool() {
		t.Error("ReduceAnd wrong")
	}
	if !mixed.ReduceOr().Bool() || zero.ReduceOr().Bool() {
		t.Error("ReduceOr wrong")
	}
	if mixed.ReduceXor().Bool() { // two bits set -> parity 0
		t.Error("ReduceXor parity wrong")
	}
	if !FromUint64(4, 0x7).ReduceXor().Bool() { // three bits
		t.Error("ReduceXor parity wrong for odd popcount")
	}
}

func TestUltComparesWide(t *testing.T) {
	a := FromUint64(128, 5).Shl(64) // 5 * 2^64
	b := FromUint64(128, ^uint64(0))
	if a.Ult(b) {
		t.Fatal("5*2^64 must not be < 2^64-1")
	}
	if !b.Ult(a) {
		t.Fatal("2^64-1 must be < 5*2^64")
	}
}

func TestStringFormats(t *testing.T) {
	v := FromUint64(4, 5)
	if v.String() != "4'b0101" {
		t.Fatalf("String = %q", v.String())
	}
	if v.Hex() != "4'h5" {
		t.Fatalf("Hex = %q", v.Hex())
	}
}

// ---------- property tests ----------

func randVec(rng *rand.Rand, width int) Vec {
	v := New(width)
	for i := 0; i < width; i++ {
		if rng.Intn(2) == 1 {
			v = v.SetBit(i, true)
		}
	}
	return v
}

func TestPropAddCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(200)
		a, b := randVec(rng, w), randVec(rng, w)
		if !a.Add(b).Eq(b.Add(a)) {
			t.Fatalf("add not commutative at width %d", w)
		}
	}
}

func TestPropSubInvertsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(200)
		a, b := randVec(rng, w), randVec(rng, w)
		if !a.Add(b).Sub(b).Eq(a) {
			t.Fatalf("(a+b)-b != a at width %d", w)
		}
	}
}

func TestPropNotInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(300)
		a := randVec(rng, w)
		if !a.Not().Not().Eq(a) {
			t.Fatalf("~~a != a at width %d", w)
		}
	}
}

func TestPropDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(150)
		a, b := randVec(rng, w), randVec(rng, w)
		left := a.And(b).Not()
		right := a.Not().Or(b.Not())
		if !left.Eq(right) {
			t.Fatalf("De Morgan violated at width %d", w)
		}
	}
}

func TestPropShiftRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		w := 10 + rng.Intn(150)
		n := rng.Intn(w)
		a := randVec(rng, w)
		// left then right shift preserves the low w-n bits
		got := a.Shl(n).Shr(n)
		want := a.Slice(w-n-1, 0).Resize(w)
		if n == w {
			want = New(w)
		}
		if !got.Eq(want) {
			t.Fatalf("shift round-trip failed: w=%d n=%d a=%s got=%s want=%s",
				w, n, a.Hex(), got.Hex(), want.Hex())
		}
	}
}

func TestPropConcatWidths(t *testing.T) {
	f := func(aw, bw uint8, av, bv uint64) bool {
		a := FromUint64(int(aw%100)+1, av)
		b := FromUint64(int(bw%100)+1, bv)
		c := a.Concat(b)
		if c.Width() != a.Width()+b.Width() {
			return false
		}
		// low part must equal b, high part must equal a
		return c.Slice(b.Width()-1, 0).Eq(b) &&
			c.Shr(b.Width()).Resize(a.Width()).Eq(a)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(16))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropMulMatchesUint64(t *testing.T) {
	f := func(a, b uint32) bool {
		va := FromUint64(64, uint64(a))
		vb := FromUint64(64, uint64(b))
		return va.Mul(vb).Uint64() == uint64(a)*uint64(b)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropPopCountAfterXor(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 100; i++ {
		w := 1 + rng.Intn(300)
		a := randVec(rng, w)
		if a.Xor(a).PopCount() != 0 {
			t.Fatal("a^a must be zero")
		}
		if a.Xor(a.Not()).PopCount() != w {
			t.Fatal("a ^ ~a must be all ones")
		}
	}
}

// TestClog2 pins $clog2 at the edges of the 64-bit range against the
// doubling loop the backends used, bounded at 64 steps: unbounded, the
// loop never ends above 2^63 because 1<<64 is 0.
func TestClog2(t *testing.T) {
	ref := func(u uint64) int {
		r := 0
		for r < 64 && uint64(1)<<r < u {
			r++
		}
		return r
	}
	cases := map[uint64]int{
		0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3,
		1 << 63: 63, 1<<63 + 1: 64, ^uint64(0): 64,
	}
	for u, want := range cases {
		if got := Clog2(u); got != want || got != ref(u) {
			t.Errorf("Clog2(%#x) = %d, want %d (reference %d)", u, got, want, ref(u))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		u := rng.Uint64() >> uint(rng.Intn(64))
		if got := Clog2(u); got != ref(u) {
			t.Fatalf("Clog2(%#x) = %d, reference %d", u, got, ref(u))
		}
	}
}

// TestShiftCount pins the shift operators' unsigned count: the value
// below 2^31, saturated above it and whenever a bit above the low 64 is
// set, never negative.
func TestShiftCount(t *testing.T) {
	cases := []struct {
		v    Vec
		want int
	}{
		{Vec{}, 0},
		{FromUint64(8, 7), 7},
		{FromUint64(64, 1<<31-2), 1<<31 - 2},
		{FromUint64(64, 1<<31), 1<<31 - 1},
		{FromUint64(64, 1<<63), 1<<31 - 1},
		{FromUint64(64, 1<<64-1), 1<<31 - 1},
		{FromUint64(65, 0).SetBit(64, true), 1<<31 - 1},
	}
	for _, tc := range cases {
		if got := tc.v.ShiftCount(); got != tc.want {
			t.Errorf("ShiftCount(%s) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// A saturated count shifts every bit out, in either direction.
	a := FromUint64(8, 0x81)
	for _, n := range []Vec{FromUint64(64, 1<<63), FromUint64(64, 1<<64-1)} {
		if !a.Shl(n.ShiftCount()).IsZero() || !a.Shr(n.ShiftCount()).IsZero() {
			t.Errorf("0x81 shifted by %s is not zero", n)
		}
	}
}
