package drvtest

import (
	"bytes"
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// runAggregate is the AggregatedPacket case: one aggregate built by
// Backlog.MakeEager — a 0-byte record, a 16 B record and a record that
// fills the rail's aggregation cap — must arrive as exactly the
// contiguous [header|bytes] encoding, although the packet carries its
// records as a gather list over the application buffers. The arena's
// poison canary is on, so a driver that writes into a lease after
// releasing it panics at the next lease.
func runAggregate(t *testing.T, h Harness) {
	core.SetPoolChecks(true)
	t.Cleanup(func() { core.SetPoolChecks(false) })
	leakCheck(t)
	p := setup(t, h)
	ra, rb := bind(p)

	eng := core.New(core.Config{Strategy: strategy.Must("fifo")})
	b := eng.NewGate("drvtest").Backlog()
	limit := p.A.Profile().AggMax
	if limit == 0 {
		limit = b.AggThreshold()
	}
	sizes := []int{0, 16, limit - 3*core.HeaderLen - 16}
	var units []*core.Unit
	var want []byte
	for i, n := range sizes {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i*31 + j*7)
		}
		hdr := core.Header{
			Kind: core.KData, Tag: uint32(40 + i), MsgID: uint64(i), MsgSegs: 1,
			MsgLen: uint64(n), SegLen: uint64(n),
		}
		units = append(units, &core.Unit{Hdr: hdr, Data: data})
		rec := hdr
		rec.PayLen = uint32(n)
		var rh [core.HeaderLen]byte
		core.EncodeHeader(rh[:], &rec)
		want = append(append(want, rh[:]...), data...)
	}
	agg := b.MakeEager(units...)
	if agg.Len() != limit {
		t.Fatalf("aggregate payload %d bytes, want the cap %d", agg.Len(), limit)
	}
	send(t, p, p.A, agg)
	waitEvents(t, p, func() bool {
		arr, _, _, _ := rb.snapshot()
		_, comp, _, _ := ra.snapshot()
		return arr >= 1 && comp >= 1
	}, "aggregate delivered and completed")
	agg.Release()

	got := rb.arrival(0)
	wantHdr := core.Header{Kind: core.KData, Agg: 3, Tag: 40, PayLen: uint32(len(want))}
	if got.Hdr != wantHdr {
		t.Fatalf("aggregate header %+v, want %+v", got.Hdr, wantHdr)
	}
	if !bytes.Equal(got.Payload, want) {
		t.Fatalf("aggregate payload differs from the contiguous encoding (%d bytes, want %d)", len(got.Payload), len(want))
	}
}
