package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{name: "empty", xs: nil, want: 0},
		{name: "single", xs: []float64{42}, want: 42},
		{name: "pair", xs: []float64{1, 3}, want: 2},
		{name: "negative", xs: []float64{-1, 1, -3, 3}, want: 0},
		{name: "fractions", xs: []float64{0.5, 1.5, 2.5}, want: 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{name: "empty", xs: nil, want: 0},
		{name: "single", xs: []float64{5}, want: 0},
		{name: "constant", xs: []float64{2, 2, 2, 2}, want: 0},
		{name: "known", xs: []float64{2, 4, 4, 4, 5, 5, 7, 9}, want: 32.0 / 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Variance(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Variance(%v) = %v, want %v", tt.xs, got, tt.want)
			}
			if got := StdDev(tt.xs); !almostEqual(got, math.Sqrt(tt.want), 1e-12) {
				t.Errorf("StdDev(%v) = %v, want %v", tt.xs, got, math.Sqrt(tt.want))
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) error = %v, want ErrEmpty", err)
	}
	xs := []float64{3, -1, 4, 1, 5, -9}
	mn, err := Min(xs)
	if err != nil || mn != -9 {
		t.Errorf("Min = %v, %v; want -9, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 5 {
		t.Errorf("Max = %v, %v; want 5, nil", mx, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.1, 1.4},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v) error: %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(empty) error = %v, want ErrEmpty", err)
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("Quantile(-0.1) should fail")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("Quantile(1.1) should fail")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), xs...)
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("Quantile mutated input: %v != %v", xs, orig)
		}
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{1.5, 0.25},
		{2, 0.75},
		{3, 1},
		{10, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("CDF.At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	empty := NewCDF(nil)
	if got := empty.At(1); got != 0 {
		t.Errorf("empty CDF At = %v, want 0", got)
	}
}

func TestMeanCI(t *testing.T) {
	mean, hw := MeanCI([]float64{10, 10, 10}, 1.96)
	if mean != 10 || hw != 0 {
		t.Errorf("MeanCI constant = (%v, %v), want (10, 0)", mean, hw)
	}
	mean, hw = MeanCI([]float64{42}, 1.96)
	if mean != 42 || hw != 0 {
		t.Errorf("MeanCI single = (%v, %v), want (42, 0)", mean, hw)
	}
	_, hw = MeanCI([]float64{1, 2, 3, 4, 5}, 1.96)
	if hw <= 0 {
		t.Errorf("MeanCI half-width = %v, want > 0", hw)
	}
}

// Property: the empirical CDF is monotone non-decreasing and ends at 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			y := c.At(x)
			if y < prev {
				return false
			}
			prev = y
		}
		return c.At(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Mean lies within [Min, Max] and quantile(0)/(1) hit the extremes.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		rng := rand.New(rand.NewPCG(seed, 17))
		xs := make([]float64, int(n))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		m := Mean(xs)
		if m < mn-1e-9 || m > mx+1e-9 {
			return false
		}
		q0, _ := Quantile(xs, 0)
		q1, _ := Quantile(xs, 1)
		return q0 == mn && q1 == mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
