package mpl_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"newmad/internal/mpl"
)

// foldSumInt64 is the element-at-a-time reference fold.
func foldSumInt64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		s := int64(binary.LittleEndian.Uint64(dst[i:])) + int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], uint64(s))
	}
}

// TestOpSumInt64MatchesReference checks the four-lane kernel against the
// reference loop for every length 0–1 KiB in steps of 8, on buffers that
// start at every byte offset within a word (so the lanes are misaligned)
// and with random values that overflow.
func TestOpSumInt64MatchesReference(t *testing.T) {
	f := mpl.OpSumInt64().F
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 1<<10; n += 8 {
		for off := 0; off < 8; off++ {
			dstBuf := make([]byte, n+off)
			srcBuf := make([]byte, n+7-off)
			rng.Read(dstBuf)
			rng.Read(srcBuf)
			dst, src := dstBuf[off:], srcBuf[7-off:]
			want := append([]byte(nil), dst...)
			foldSumInt64(want, src)
			f(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("len %d, offset %d: kernel differs from the reference loop", n, off)
			}
		}
	}
}

func BenchmarkOpSumInt64(b *testing.B) {
	const n = 128 << 10
	dst, src := make([]byte, n), make([]byte, n)
	rand.New(rand.NewSource(1)).Read(src)
	f := mpl.OpSumInt64().F
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, src)
	}
}
