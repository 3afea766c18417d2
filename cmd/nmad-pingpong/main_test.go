package main

import (
	"testing"
	"time"
)

func TestPlanCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    plan
		ok   bool
	}{
		{"default sweep", plan{Sizes: []int{64, 4096, 65536, 1 << 20}, Segs: 2, Iters: 50}, true},
		{"limits", plan{Sizes: []int{1, maxSize}, Segs: 0xffff, Iters: 1}, true},
		{"no sizes", plan{Segs: 2, Iters: 1}, false},
		{"negative size", plan{Sizes: []int{64, -1}, Segs: 2, Iters: 1}, false},
		{"zero size", plan{Sizes: []int{0}, Segs: 2, Iters: 1}, false},
		{"size above max", plan{Sizes: []int{maxSize + 1}, Segs: 2, Iters: 1}, false},
		{"zero segs", plan{Sizes: []int{64}, Segs: 0, Iters: 1}, false},
		{"segs above Isendv limit", plan{Sizes: []int{64}, Segs: 0x10000, Iters: 1}, false},
		{"zero iters", plan{Sizes: []int{64}, Segs: 2, Iters: 0}, false},
	} {
		if err := tc.p.check(); (err == nil) != tc.ok {
			t.Errorf("%s: check(%+v) = %v", tc.name, tc.p, err)
		}
	}
}

func TestServerRejectsNoRails(t *testing.T) {
	if err := runServer("127.0.0.1:0", -1, "split", time.Second); err == nil {
		t.Fatal("-rails -1 accepted")
	}
}
