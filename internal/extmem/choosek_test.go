package extmem

import (
	"math"
	"testing"
)

// TestChooseKDegenerate pins ChooseK's answer on every degenerate
// input class: it must always return k ≥ 1 and never divide by
// lg(M/B) = 0. ChooseK is exported and callable directly, so these
// hold without the config-resolution guards.
func TestChooseKDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		omega float64
		mem   int
		block int
		want  int
	}{
		{"mem equals block", 4, 64, 64, 1},
		{"mem below block", 4, 32, 64, 1},
		{"zero mem", 4, 0, 64, 1},
		{"negative mem", 4, -64, 64, 1},
		{"zero block", 4, 64, 0, 1},
		{"negative block", 4, 64, -8, 1},
		{"zero omega", 0, 1 << 20, 64, 1},
		{"negative omega", -3, 1 << 20, 64, 1},
		{"nan omega", math.NaN(), 1 << 20, 64, 1},
		{"omega one tight ratio", 1, 128, 64, 1},
		{"positive inf omega", math.Inf(1), 1 << 20, 64, 512},
		{"negative inf omega", math.Inf(-1), 1 << 20, 64, 1},
	}
	for _, tc := range cases {
		if got := ChooseK(tc.omega, tc.mem, tc.block); got != tc.want {
			t.Errorf("%s: ChooseK(%v, %d, %d) = %d, want %d",
				tc.name, tc.omega, tc.mem, tc.block, got, tc.want)
		}
	}
	// Exhaustive floor: no (ω, M/B) combination may yield k < 1.
	omegas := []float64{math.NaN(), math.Inf(-1), -1, 0, 0.5, 1, 2, 8, 64, math.Inf(1)}
	for _, w := range omegas {
		for _, mb := range [][2]int{{0, 0}, {1, 1}, {1, 0}, {64, 64}, {65, 64}, {1 << 20, 64}, {1 << 20, 1}} {
			if got := ChooseK(w, mb[0], mb[1]); got < 1 {
				t.Fatalf("ChooseK(%v, %d, %d) = %d < 1", w, mb[0], mb[1], got)
			}
		}
	}
}

// TestResolveDegenerateOmega pins the config-resolution guards: NaN
// and non-positive ω resolve to 1 and +Inf clamps finite, so no
// degenerate flag value can reach ChooseK, the fan-in derivation, or
// Report.Cost.
func TestResolveDegenerateOmega(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(-1), -2, 0} {
		r, err := Config{Mem: 1 << 16, Block: 64, Omega: w}.resolve()
		if err != nil {
			t.Fatalf("resolve(omega=%v): %v", w, err)
		}
		if r.omega != 1 {
			t.Errorf("resolve(omega=%v): omega = %v, want 1", w, r.omega)
		}
		if r.k < 1 {
			t.Errorf("resolve(omega=%v): k = %d < 1", w, r.k)
		}
	}
	r, err := Config{Mem: 1 << 16, Block: 64, Omega: math.Inf(1)}.resolve()
	if err != nil {
		t.Fatalf("resolve(omega=+Inf): %v", err)
	}
	if math.IsInf(r.omega, 0) || math.IsNaN(r.omega) || r.omega <= 0 {
		t.Errorf("resolve(omega=+Inf): omega = %v, want finite positive", r.omega)
	}
	if r.k != 512 {
		t.Errorf("resolve(omega=+Inf): k = %d, want the scan cap 512", r.k)
	}
}
