package ratio

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewReduces(t *testing.T) {
	cases := []struct {
		n, d       int64
		wantN      int64
		wantD      int64
		wantString string
	}{
		{1, 2, 1, 2, "1/2"},
		{2, 4, 1, 2, "1/2"},
		{-2, 4, -1, 2, "-1/2"},
		{2, -4, -1, 2, "-1/2"},
		{-2, -4, 1, 2, "1/2"},
		{0, 5, 0, 1, "0"},
		{6, 3, 2, 1, "2"},
	}
	for _, c := range cases {
		r := New(c.n, c.d)
		if r.Num() != c.wantN || r.Den() != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.n, c.d, r.Num(), r.Den(), c.wantN, c.wantD)
		}
		if r.String() != c.wantString {
			t.Errorf("New(%d,%d).String() = %q, want %q", c.n, c.d, r.String(), c.wantString)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValueIsUsable(t *testing.T) {
	var r Rat
	if !r.IsZero() || r.Floor() != 0 || r.Den() != 1 {
		t.Errorf("zero value misbehaves: %v floor=%d den=%d", r, r.Floor(), r.Den())
	}
	if got := r.Add(One()); got.Cmp(One()) != 0 {
		t.Errorf("0+1 = %v", got)
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		r          Rat
		floor, cei int64
	}{
		{New(7, 2), 3, 4},
		{New(-7, 2), -4, -3},
		{New(4, 2), 2, 2},
		{New(-4, 2), -2, -2},
		{New(0, 3), 0, 0},
		{New(1, 3), 0, 1},
		{New(-1, 3), -1, 0},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("%v.Floor() = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.cei {
			t.Errorf("%v.Ceil() = %d, want %d", c.r, got, c.cei)
		}
	}
}

func TestComparisons(t *testing.T) {
	half, third := New(1, 2), New(1, 3)
	if !third.Less(half) || half.Less(third) {
		t.Error("1/3 < 1/2 failed")
	}
	if !half.Leq(half) {
		t.Error("1/2 ≤ 1/2 failed")
	}
	if half.Cmp(New(2, 4)) != 0 {
		t.Error("1/2 == 2/4 failed")
	}
	if New(-1, 2).Sign() != -1 || Zero().Sign() != 0 || half.Sign() != 1 {
		t.Error("Sign failed")
	}
}

func TestMinDivMulInt(t *testing.T) {
	if got := New(3, 4).Min(New(2, 3)); got.Cmp(New(2, 3)) != 0 {
		t.Errorf("Min = %v", got)
	}
	if got := New(1, 2).Div(New(1, 4)); got.Cmp(FromInt(2)) != 0 {
		t.Errorf("(1/2)/(1/4) = %v", got)
	}
	if got := New(1, 3).MulInt(6); got.Cmp(FromInt(2)) != 0 {
		t.Errorf("(1/3)*6 = %v", got)
	}
	if got := New(1, 2).Div(New(-1, 4)); got.Cmp(FromInt(-2)) != 0 {
		t.Errorf("(1/2)/(-1/4) = %v", got)
	}
}

// TestDivIntAndMul64: DivInt reduces like Div and reports, instead of
// panicking, a quotient whose denominator overflows int64; Mul64 is
// the checked product under both.
func TestDivIntAndMul64(t *testing.T) {
	for _, c := range []struct {
		r    Rat
		x    int64
		want Rat
	}{
		{New(1, 2), 3, New(1, 6)},
		{New(4, 9), 4, New(1, 9)},
		{New(-6, 5), 4, New(-3, 10)},
		{New(4, 3000000000000000000), 4, New(1, 3000000000000000000)}, // reduced before multiplying
	} {
		got, ok := c.r.DivInt(c.x)
		if !ok || got != c.want || got.Cmp(c.r.Div(FromInt(c.x))) != 0 {
			t.Errorf("(%v).DivInt(%d) = %v, %v; want %v", c.r, c.x, got, ok, c.want)
		}
	}
	if _, ok := New(1, 1000000000000000000).DivInt(16); ok {
		t.Error("DivInt reported 1/1.6e19 as representable")
	}
	if p, ok := Mul64(-3037000499, 3037000499); !ok || p != -9223372030926249001 {
		t.Errorf("Mul64 near the limit = %d, %v", p, ok)
	}
	for _, c := range [][2]int64{{1 << 32, 1 << 31}, {-1 << 63, -1}, {3037000500, 3037000500}} {
		if _, ok := Mul64(c[0], c[1]); ok {
			t.Errorf("Mul64(%d, %d) reported no overflow", c[0], c[1])
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero did not panic")
		}
	}()
	One().Div(Zero())
}

// Property: all arithmetic agrees with math/big on small operands.
func TestArithmeticAgainstBigRat(t *testing.T) {
	toBig := func(r Rat) *big.Rat { return big.NewRat(r.Num(), r.Den()) }
	mk := func(n int16, d uint8) Rat { return New(int64(n), int64(d%100)+1) }
	f := func(n1 int16, d1 uint8, n2 int16, d2 uint8) bool {
		a, b := mk(n1, d1), mk(n2, d2)
		ba, bb := toBig(a), toBig(b)
		if toBig(a.Add(b)).Cmp(new(big.Rat).Add(ba, bb)) != 0 {
			return false
		}
		if toBig(a.Sub(b)).Cmp(new(big.Rat).Sub(ba, bb)) != 0 {
			return false
		}
		if toBig(a.Mul(b)).Cmp(new(big.Rat).Mul(ba, bb)) != 0 {
			return false
		}
		if a.Cmp(b) != ba.Cmp(bb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Floor(r) ≤ r < Floor(r)+1.
func TestFloorProperty(t *testing.T) {
	f := func(n int32, d uint16) bool {
		r := New(int64(n), int64(d)+1)
		fl := FromInt(r.Floor())
		return fl.Leq(r) && r.Less(fl.Add(One()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: results are always reduced (gcd(num, den) == 1) with positive
// denominator.
func TestAlwaysReduced(t *testing.T) {
	f := func(n1 int16, d1 uint8, n2 int16, d2 uint8) bool {
		a := New(int64(n1), int64(d1)+1)
		b := New(int64(n2), int64(d2)+1)
		for _, r := range []Rat{a.Add(b), a.Sub(b), a.Mul(b)} {
			if r.Den() <= 0 {
				return false
			}
			if g := gcd(abs(r.Num()), r.Den()); r.Num() != 0 && g != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64(t *testing.T) {
	if got := New(1, 2).Float64(); got != 0.5 {
		t.Errorf("Float64 = %v", got)
	}
}

func TestLargeAccumulationStaysExact(t *testing.T) {
	// Simulates the leaky-bucket: add 99/100 ten thousand times and check
	// against the closed form.
	rho := New(99, 100)
	acc := Zero()
	for i := 0; i < 10000; i++ {
		acc = acc.Add(rho)
	}
	if acc.Cmp(New(990000, 100)) != 0 {
		t.Errorf("accumulated %v, want 9900", acc)
	}
}

func TestParseFraction(t *testing.T) {
	cases := []struct {
		in       string
		num, den int64
		wantErr  bool
	}{
		{"1/2", 1, 2, false},
		{"2/4", 2, 4, false}, // kept as written, not reduced
		{"-3/7", -3, 7, false},
		{"5", 5, 1, false},
		{"0", 0, 1, false},
		{"1/0", 0, 0, true},
		{"0/0", 0, 0, true},
		{"abc/zz", 0, 0, true},
		{"1/zz", 0, 0, true},
		{"1/2/3", 0, 0, true},
		{"", 0, 0, true},
	}
	for _, c := range cases {
		num, den, err := ParseFraction(c.in)
		if (err != nil) != c.wantErr || num != c.num || den != c.den {
			t.Errorf("ParseFraction(%q) = %d, %d, %v; want %d, %d, error %v",
				c.in, num, den, err, c.num, c.den, c.wantErr)
		}
	}
}
