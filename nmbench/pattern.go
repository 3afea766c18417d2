package main

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// Inputs are derived from --seed only: the same seed gives the same
// sizes, payload bytes, collective sequence and reduction inputs.

// mix is the splitmix64 finaliser: a cheap, well-spread hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seededBytes returns n pseudo-random bytes for seed and stream.
func seededBytes(seed int64, stream uint64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(mix(uint64(seed) ^ stream)))).Read(b)
	return b
}

// payloads hands out message payloads as slices of one seeded byte
// pattern, each message at its own seeded offset: a receiver that got
// another message's bytes, or stale bytes, fails the comparison.
type payloads struct {
	seed int64
	pat  []byte
	size func(i int64) int
}

func newPayloads(seed int64, maxSize, slack int, size func(i int64) int) *payloads {
	return &payloads{seed: seed, pat: seededBytes(seed, 1, maxSize+slack), size: size}
}

// get returns message i's payload.
func (p *payloads) get(i int64) []byte {
	n := p.size(i)
	off := int(mix(uint64(p.seed)*31+uint64(i)) % uint64(len(p.pat)-n+1))
	return p.pat[off : off+n]
}

// logUniformSizes returns a seeded permutation of count sizes spread
// log-uniformly over [lo, hi] and stratified — each of the count equal
// slices of log2 size holds exactly one — so every seed sees the same
// size distribution in a different order and with different values.
// Sizes are rounded down to a multiple of align.
func logUniformSizes(seed int64, stream uint64, count, lo, hi, align int) []int {
	r := rand.New(rand.NewSource(int64(mix(uint64(seed) ^ stream))))
	span := math.Log2(float64(hi) / float64(lo))
	sizes := make([]int, count)
	for k := range sizes {
		u := (float64(k) + r.Float64()) / float64(count)
		s := int(float64(lo) * math.Exp2(span*u))
		s -= s % align
		if s < lo {
			s = lo
		}
		if s > hi {
			s = hi
		}
		sizes[k] = s
	}
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// int64s reads b as little-endian int64 elements.
func int64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
