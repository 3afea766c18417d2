package xfer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// rig is two engines on two in-memory rails with a background pump.
type rig struct {
	engA, engB     *core.Engine
	gateAB, gateBA *core.Gate
	drvsA          []*memdrv.Driver
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{
		engA: core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)}),
		engB: core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)}),
	}
	r.gateAB = r.engA.NewGate("B")
	r.gateBA = r.engB.NewGate("A")
	for i := 0; i < 2; i++ {
		a, b := memdrv.Pair(fmt.Sprintf("x%d", i), memdrv.DefaultProfile())
		r.gateAB.AddRail(a)
		r.gateBA.AddRail(b)
		r.drvsA = append(r.drvsA, a)
	}
	return r
}

func randomPayload(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func transfer(t *testing.T, r *rig, payload []byte, opts Options) []byte {
	t.Helper()
	var out bytes.Buffer
	errs := make(chan error, 1)
	go func() {
		_, err := Recv(r.engB, r.gateBA, &out)
		errs <- err
	}()
	if err := Send(r.engA, r.gateAB, bytes.NewReader(payload), int64(len(payload)), opts); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("recv: %v", err)
	}
	return out.Bytes()
}

func TestTransferSmall(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(1000, 1)
	got := transfer(t, r, payload, Options{})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTransferMultiChunk(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(1<<20+12345, 2) // uneven tail chunk
	opts := Options{ChunkSize: 128 << 10, Window: 3}
	got := transfer(t, r, payload, opts)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTransferEmpty(t *testing.T) {
	r := newRig(t)
	got := transfer(t, r, nil, Options{})
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestTransferExactChunkMultiple(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(4*(64<<10), 3)
	got := transfer(t, r, payload, Options{ChunkSize: 64 << 10})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

// The receiver has no chunk size of its own: 1 KiB chunks from a sender
// arrive whole, with a short tail, however the receiving side was
// configured.
func TestTransferFollowsSenderChunk(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(8<<10+100, 7)
	got := transfer(t, r, payload, Options{ChunkSize: 1 << 10})
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %d bytes, want the %d sent", len(got), len(payload))
	}
}

// A header out of range, or a chunk shorter or longer than the header
// announces, fails Recv with an error and writes nothing past it.
func TestRecvRejectsBadChunks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hdr    header
		chunks []int
	}{
		{"zero chunk", header{Total: 8 << 10, Chunk: 0}, nil},
		{"negative chunk", header{Total: 8 << 10, Chunk: -1}, nil},
		{"chunk above max", header{Total: 8 << 10, Chunk: MaxChunk + 1}, nil},
		{"negative total", header{Total: -1, Chunk: 4 << 10}, nil},
		{"short chunk", header{Total: 8 << 10, Chunk: 4 << 10}, []int{100}},
		{"overlong tail", header{Total: 100, Chunk: 4 << 10}, []int{200}},
		{"chunk above buffer", header{Total: 8 << 10, Chunk: 4 << 10}, []int{5 << 10}},
		{"total at the int64 limit", header{Total: math.MaxInt64, Chunk: 4 << 10}, []int{100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			if err := r.engA.Wait(r.gateAB.Isend(tagHeader, tc.hdr.marshal())); err != nil {
				t.Fatal(err)
			}
			for _, n := range tc.chunks {
				r.gateAB.Isend(tagData, make([]byte, n))
			}
			var out bytes.Buffer
			if _, err := Recv(r.engB, r.gateBA, &out); err == nil {
				t.Fatal("Recv accepted a bad transfer")
			}
			if out.Len() != 0 {
				t.Fatalf("Recv wrote %d bytes of a bad transfer", out.Len())
			}
		})
	}
}

func TestTransferStripesAcrossRails(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(2<<20, 5)
	got := transfer(t, r, payload, Options{ChunkSize: 256 << 10})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	p0, _ := r.gateAB.Rails()[0].Stats()
	p1, _ := r.gateAB.Rails()[1].Stats()
	if p0 == 0 || p1 == 0 {
		t.Fatalf("transfer used one rail only: %d / %d", p0, p1)
	}
}

func TestTransferSurvivesRailFailure(t *testing.T) {
	r := newRig(t)
	r.drvsA[0].FailAfterSends(3)
	payload := randomPayload(1<<20, 6)
	got := transfer(t, r, payload, Options{ChunkSize: 128 << 10})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after rail failure")
	}
}

func TestTransferShortReader(t *testing.T) {
	r := newRig(t)
	err := Send(r.engA, r.gateAB, bytes.NewReader(make([]byte, 10)), 100, Options{})
	if err == nil {
		t.Fatal("short reader accepted")
	}
}

func TestSendRejectsChunkAboveMax(t *testing.T) {
	r := newRig(t)
	err := Send(r.engA, r.gateAB, bytes.NewReader(nil), 0, Options{ChunkSize: MaxChunk + 1})
	if err == nil {
		t.Fatal("chunk above MaxChunk accepted")
	}
}
