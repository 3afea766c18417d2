package main

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"newmad/internal/simnet"
)

// virtualFigures renders an outcome's virtual-time figures the way a
// result prints them.
func virtualFigures(out *desOutcome) string {
	return fmt.Sprintf("%v %d %d %d %d %d", out.lat, out.total, out.bytes, out.failed, out.pio, out.dma)
}

func runShortSequence(seed int64) (*desOutcome, []collOp) {
	ops := desSequence(seed, 16)
	two := []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()}
	return runSequence(desCluster(two, splitStrategy), ops, newDESInputs(seed)), ops
}

func TestDESSameSeedSameVirtualFigures(t *testing.T) {
	a, _ := runShortSequence(1)
	b, _ := runShortSequence(1)
	if a.failed != 0 {
		t.Fatalf("%d collectives failed verification", a.failed)
	}
	if fa, fb := virtualFigures(a), virtualFigures(b); fa != fb {
		t.Fatalf("same seed, different virtual figures:\n%s\n%s", fa, fb)
	}
	if !sameVirtual(a, b) {
		t.Fatal("sameVirtual disagrees with the rendered figures")
	}
}

func TestDESSeedChangesTheSequence(t *testing.T) {
	a, opsA := runShortSequence(1)
	b, opsB := runShortSequence(2)
	if fmt.Sprint(opsA) == fmt.Sprint(opsB) {
		t.Fatal("seeds 1 and 2 gave the same collective sequence")
	}
	if virtualFigures(a) == virtualFigures(b) {
		t.Fatal("seeds 1 and 2 gave the same virtual figures")
	}
}

func TestDESSequenceIsBalanced(t *testing.T) {
	ops := desSequence(3, desOps)
	var bcast int
	for _, op := range ops {
		if op.bcast {
			bcast++
		}
		if op.size < 64 || op.size > desMax || op.size%8 != 0 {
			t.Fatalf("op size %d outside [64, %d] or not a multiple of 8", op.size, desMax)
		}
	}
	if bcast != desOps/2 {
		t.Fatalf("%d of %d ops are Bcast, want half", bcast, desOps)
	}
}

func TestLogUniformSizesStratified(t *testing.T) {
	const n = 64
	sizes := logUniformSizes(9, 1, n, 16, 1<<15, 1)
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	// The k-th smallest size lies in the k-th of n equal slices of
	// log2(size/16) over [0, 11] (less one for rounding down).
	for k, s := range sorted {
		lo := 16*math.Exp2(11*float64(k)/n) - 1
		hi := 16 * math.Exp2(11*float64(k+1)/n)
		if float64(s) < lo || float64(s) > hi {
			t.Fatalf("size %d is not in stratum %d [%.1f, %.1f]", s, k, lo, hi)
		}
	}
	if fmt.Sprint(sizes) == fmt.Sprint(sorted) {
		t.Fatal("sizes are not shuffled")
	}
	if fmt.Sprint(sizes) == fmt.Sprint(logUniformSizes(10, 1, n, 16, 1<<15, 1)) {
		t.Fatal("different seeds gave the same sizes")
	}
}
