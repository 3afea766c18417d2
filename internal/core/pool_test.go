package core

import "testing"

func TestClassForBoundaries(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0},
		{1 << poolMinBits, 0},
		{1<<poolMinBits + 1, 1},
		{128, 1},
		{129, 2},
		{1 << poolMaxBits, poolClasses - 1},
		{HeaderLen + MaxPayload, poolClasses - 1},
		{HeaderLen + MaxPayload + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBufLeaseAccountingBalances(t *testing.T) {
	before := PoolStats()
	sizes := []int{1, 64, 100, 4096, 1 << 20, 9 << 20} // last one oversize
	bufs := make([]*Buf, 0, len(sizes))
	for _, n := range sizes {
		b := GetBuf(n)
		if len(b.B) != n {
			t.Fatalf("GetBuf(%d): len(B) = %d", n, len(b.B))
		}
		bufs = append(bufs, b)
	}
	mid := PoolStats()
	if d := mid.Live - before.Live; d != int64(len(sizes)) {
		t.Fatalf("live after %d gets: %d", len(sizes), d)
	}
	for _, b := range bufs {
		b.Release()
	}
	after := PoolStats()
	if after.Live != before.Live {
		t.Fatalf("live not restored: %d -> %d", before.Live, after.Live)
	}
	if g, p := after.Gets-before.Gets, after.Puts-before.Puts; g != uint64(len(sizes)) || p != uint64(len(sizes)) {
		t.Fatalf("gets/puts = %d/%d, want %d/%d", g, p, len(sizes), len(sizes))
	}
}

func TestBufOversizeUnpooled(t *testing.T) {
	b := GetBuf(9 << 20)
	if b.class != -1 {
		t.Fatalf("9 MiB lease got class %d, want oversize", b.class)
	}
	b.Release() // must not panic or enter a pool
}

func TestBufDoubleReleasePanics(t *testing.T) {
	b := GetBuf(128)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

func TestPoisonCanaryCatchesWriteAfterRelease(t *testing.T) {
	SetPoolChecks(true)
	t.Cleanup(func() { SetPoolChecks(false) })
	b := GetBuf(100)
	full := b.full
	b.Release()
	full[5] = 1 // the use-after-free of arena allocation
	defer func() {
		full[5] = poisonByte // repair so a later lease of this buffer is clean
		if recover() == nil {
			t.Fatal("poison verification missed a write-after-release")
		}
	}()
	verifyPoison(b)
}

func TestPoisonedBufCleanOnRelease(t *testing.T) {
	SetPoolChecks(true)
	t.Cleanup(func() { SetPoolChecks(false) })
	// A lease that is written only while held must verify clean on its
	// next round trip through the pool.
	for i := 0; i < 4; i++ {
		b := GetBuf(256)
		for j := range b.B {
			b.B[j] = byte(j)
		}
		b.Release()
	}
}

func TestWrapBufReleasesThroughHook(t *testing.T) {
	before := PoolStats()
	ext := make([]byte, 512)
	freed := 0
	b := WrapBuf(ext, func() { freed++ })
	if len(b.B) != 512 {
		t.Fatalf("len(B) = %d", len(b.B))
	}
	mid := PoolStats()
	if mid.Live-before.Live != 1 {
		t.Fatal("wrapped lease not counted")
	}
	b.Release()
	if freed != 1 {
		t.Fatalf("free hook ran %d times", freed)
	}
	after := PoolStats()
	if after.Live != before.Live {
		t.Fatalf("live not restored: %d -> %d", before.Live, after.Live)
	}
	// The double-release guard applies to wrapped leases too.
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
		if freed != 1 {
			t.Fatalf("free hook ran %d times after double release", freed)
		}
	}()
	b.Release()
}

func TestEventBatchRecycleClears(t *testing.T) {
	b := GetEventBatch()
	b.Add(DriverEvent{Kind: EvArrive, Pkt: &Packet{}})
	b.Add(DriverEvent{Kind: EvSendComplete})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	putEventBatch(b)
	if b.Len() != 0 {
		t.Fatalf("recycled batch still holds %d events", b.Len())
	}
}
