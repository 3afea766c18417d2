package main

import (
	"fmt"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentiles must sort
	}
	return xs
}

func TestPercentilesNearestRank(t *testing.T) {
	got, err := percentiles(seq(200), 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[1] != 180 {
		t.Fatalf("p50, p90 of 1..200 = %v, want [100 180]", got)
	}
}

func TestPercentilesTailRule(t *testing.T) {
	// p90 of n samples leaves n - ceil(0.9n) beyond it: 10 at n=100.
	if _, err := percentiles(seq(100), 0.5, 0.9); err != nil {
		t.Fatalf("100 samples must support p90: %v", err)
	}
	if _, err := percentiles(seq(99), 0.5, 0.9); err == nil {
		t.Fatal("99 samples leave 9 beyond p90; want refusal")
	}
	if _, err := percentiles(seq(999), 0.99); err == nil {
		t.Fatal("999 samples leave 9 beyond p99; want refusal")
	}
	if _, err := percentiles(nil, 0.5); err == nil {
		t.Fatal("no samples; want refusal")
	}
	if _, err := percentiles(seq(50), 1); err == nil {
		t.Fatal("q=1 is out of range; want refusal")
	}
	if n := minSamplesFor(0.9); n != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", n)
	}
	if n := minSamplesFor(0.5); n != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", n)
	}
}

func TestMedianAndRatios(t *testing.T) {
	in := []float64{5, 1, 3}
	if m := median(in); m != 3 {
		t.Fatalf("median = %v", m)
	}
	if in[0] != 5 {
		t.Fatal("median modified its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if median(nil) != 0 || ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Fatal("empty median or zero-denominator ratio not 0")
	}
	// A drifting host doubles both numerator and denominator in the
	// last two rounds; the paired ratio ignores it.
	engine := []float64{10, 10, 20, 20, 10}
	raw := []float64{5, 5, 10, 10, 5}
	if r := pairedRatio(engine, raw); r != 2 {
		t.Fatalf("pairedRatio = %v, want 2", r)
	}
	if r := pairedRatio([]float64{1, 9}, []float64{0, 3}); r != 3 {
		t.Fatalf("pairedRatio skips zero raw rounds: %v", r)
	}
	if math.IsNaN(pairedRatio(nil, nil)) {
		t.Fatal("pairedRatio of nothing is NaN")
	}
}

func TestReservoirKeepsAUniformBoundedSample(t *testing.T) {
	r := newReservoir(1)
	xs := make([]float64, 10*reservoirSize)
	for i := range xs {
		xs[i] = float64(i)
	}
	r.addAll(xs)
	if r.n != int64(len(xs)) || len(r.xs) != reservoirSize {
		t.Fatalf("offered %d, kept %d", r.n, len(r.xs))
	}
	again := newReservoir(1)
	again.addAll(xs)
	if fmt.Sprint(again.xs) != fmt.Sprint(r.xs) {
		t.Fatal("same seed kept a different subset")
	}
	p, err := percentiles(r.xs, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// A uniform subset of 0..N-1 puts p50 near N/2 and p90 near 0.9N.
	n := float64(len(xs))
	if math.Abs(p[0]/n-0.5) > 0.01 || math.Abs(p[1]/n-0.9) > 0.01 {
		t.Fatalf("p50, p90 = %v of %v: subset not uniform", p, n)
	}
}
