package analysis

import (
	"math"
	"testing"
)

func iv(lo, hi int64) Interval {
	return Interval{Lo: ConstBound(lo), Hi: ConstBound(hi)}
}

func TestIntervalJoinMeet(t *testing.T) {
	tests := []struct {
		name     string
		a, b     Interval
		joinWant string
		meetWant string
	}{
		{"overlap", iv(0, 5), iv(3, 9), "[0, 9]", "[3, 5]"},
		{"nested", iv(0, 10), iv(2, 4), "[0, 10]", "[2, 4]"},
		{"disjoint", iv(0, 1), iv(5, 6), "[0, 6]", "[5, 1]"},
		{"with full", iv(0, 5), Full(), "[-inf, +inf]", "[0, 5]"},
		{"points", Point(3), Point(3), "[3, 3]", "[3, 3]"},
	}
	for _, tc := range tests {
		if got := tc.a.Join(tc.b).String(); got != tc.joinWant {
			t.Errorf("%s: join = %s, want %s", tc.name, got, tc.joinWant)
		}
		if got := tc.b.Join(tc.a).String(); got != tc.joinWant {
			t.Errorf("%s: join (swapped) = %s, want %s", tc.name, got, tc.joinWant)
		}
		if got := tc.a.Meet(tc.b).String(); got != tc.meetWant {
			t.Errorf("%s: meet = %s, want %s", tc.name, got, tc.meetWant)
		}
	}
}

func TestIntervalWiden(t *testing.T) {
	// Stable endpoints survive widening; changed endpoints jump to
	// infinity so chains of widenings have length <= 2.
	tests := []struct {
		old, merged Interval
		want        string
	}{
		{iv(0, 5), iv(0, 7), "[0, +inf]"},
		{iv(0, 5), iv(-1, 5), "[-inf, 5]"},
		{iv(0, 5), iv(-1, 7), "[-inf, +inf]"},
		{iv(0, 5), iv(0, 5), "[0, 5]"},
	}
	for _, tc := range tests {
		if got := tc.old.Widen(tc.merged).String(); got != tc.want {
			t.Errorf("widen(%s, %s) = %s, want %s", tc.old, tc.merged, got, tc.want)
		}
	}
}

func TestIntervalArith(t *testing.T) {
	tests := []struct {
		name string
		got  Interval
		want string
	}{
		{"add", iv(1, 2).Add(iv(10, 20)), "[11, 22]"},
		{"add overflow saturates", iv(math.MaxInt64-1, math.MaxInt64).Add(iv(2, 2)), "[+inf, +inf]"},
		{"sub", iv(10, 20).Sub(iv(1, 2)), "[8, 19]"},
		{"neg", iv(-3, 7).Neg(), "[-7, 3]"},
		{"mul mixed signs", iv(-2, 3).Mul(iv(-5, 4)), "[-15, 12]"},
		{"div by positive", iv(0, 100).Div(iv(2, 5)), "[0, 50]"},
		{"div full divisor", iv(0, 100).Div(Full()), "[-inf, +inf]"},
		{"rem positive divisor", Full().Rem(iv(1, 8)), "[-7, 7]"},
		{"rem nonneg dividend", iv(0, 100).Rem(iv(1, 8)), "[0, 7]"},
		{"rem zero divisor", Full().Rem(iv(0, 8)), "[-inf, +inf]"},
		{"shl", iv(0, 3).Shl(Point(2)), "[0, 12]"},
		{"shl overflow", iv(0, math.MaxInt64).Shl(Point(1)), "[-inf, +inf]"},
		{"shr", iv(0, 64).Shr(Point(3)), "[0, 64]"},
		{"and nonneg", iv(0, 100).And(iv(0, 15)), "[0, 15]"},
		{"or nonneg", iv(0, 4).OrXor(iv(0, 3)), "[0, +inf]"},
	}
	for _, tc := range tests {
		if got := tc.got.String(); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSymbolicBounds(t *testing.T) {
	o := symObjForTest(t, "vs")
	lenB := SymBound(o, 0, true)   // len(vs)
	lenM1 := SymBound(o, -1, true) // len(vs)-1
	symIv := Interval{Lo: ConstBound(0), Hi: lenM1}

	if !leqBound(lenM1, lenB) {
		t.Error("len(vs)-1 <= len(vs) should hold")
	}
	if leqBound(lenB, lenM1) {
		t.Error("len(vs) <= len(vs)-1 should not hold")
	}
	// A constant is below a length bound only when it is <= the offset
	// (len >= 0 is the only length fact the comparison may assume).
	if !leqBound(ConstBound(0), lenB) || !leqBound(ConstBound(-2), lenM1) {
		t.Error("constants below len offsets should compare")
	}
	if leqBound(ConstBound(0), lenM1) {
		t.Error("0 <= len(vs)-1 must not hold for possibly-empty vs")
	}
	// Same-symbol subtraction cancels: (len(vs)-1) - (len(vs)-1) = 0.
	if got := symIv.Sub(Interval{Lo: lenM1, Hi: lenM1}).String(); got != "[-inf, 0]" {
		t.Errorf("symbolic sub = %s, want [-inf, 0]", got)
	}
	if got := symIv.String(); got != "[0, len(vs)-1]" {
		t.Errorf("String = %s", got)
	}
	// Widening keeps unchanged symbolic endpoints.
	w := symIv.Widen(Interval{Lo: ConstBound(-1), Hi: lenM1})
	if got := w.String(); got != "[-inf, len(vs)-1]" {
		t.Errorf("widen kept wrong endpoints: %s", got)
	}
}

func TestAddKSaturation(t *testing.T) {
	if b := ConstBound(math.MaxInt64).AddK(1); b.Inf != +1 {
		t.Errorf("MaxInt64+1 should saturate to +inf, got %s", b)
	}
	if b := ConstBound(math.MinInt64).AddK(-1); b.Inf != -1 {
		t.Errorf("MinInt64-1 should saturate to -inf, got %s", b)
	}
	if b := NegInf().AddK(5); b.Inf != -1 {
		t.Errorf("-inf+5 should stay -inf, got %s", b)
	}
}
