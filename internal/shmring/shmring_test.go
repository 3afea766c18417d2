//go:build linux

package shmring

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// skipUnsupported gates every test here: on hosts without /dev/shm the
// package still builds, and the suite skips instead of failing.
func skipUnsupported(t *testing.T) {
	t.Helper()
	if !Supported() {
		t.Skip("shared-memory segments unsupported on this platform")
	}
}

// pair creates and attaches one segment, cleaning both sides up.
func pair(t *testing.T, cfg Config) (*Seg, *Seg) {
	t.Helper()
	name := RandomName()
	a, err := Create(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Open(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func TestSegCreateOpen(t *testing.T) {
	skipUnsupported(t)
	a, b := pair(t, Config{RingBytes: 8 << 10, ArenaBytes: 64 << 10})
	if a.Side() != 0 || b.Side() != 1 {
		t.Fatalf("sides: %d/%d", a.Side(), b.Side())
	}
	if !a.PeerAttached() || !b.PeerAttached() {
		t.Fatal("peers not mutually attached")
	}
	// Only one attacher may win side 1.
	if _, err := Open(a.Name(), Config{}); err == nil {
		t.Fatal("second attacher accepted")
	}
	// The canonical flow: creator unlinks once the peer is in; both
	// mappings keep working with no file on disk, the doorbells included.
	a.Unlink()
	for _, path := range segFiles(a) {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived unlink: %v", path, err)
		}
	}
	if err := a.TX().Push(RecInline, []byte("post-unlink")); err != nil {
		t.Fatal(err)
	}
	got := popOne(t, b.RX())
	if string(got) != "post-unlink" {
		t.Fatalf("payload: %q", got)
	}
}

// segFiles lists the files a segment keeps in /dev/shm: the segment
// itself and its doorbells.
func segFiles(s *Seg) []string {
	path := SegPath(s.Name())
	return append([]string{path}, bells(path)...)
}

// bells lists a segment path's doorbell paths.
func bells(segPath string) []string {
	var out []string
	for i := range nBells {
		out = append(out, bellPath(segPath, i))
	}
	return out
}

// checkSpaceWakes fails the test unless a producer parked since the
// counters read lost and parks, and no wait ran out its slice with the
// space it waited for already released.
func checkSpaceWakes(t *testing.T, lost, parks uint64) {
	t.Helper()
	if n := lostWakes.Load() - lost; n != 0 {
		t.Fatalf("%d waits ran out their slice with the space already released: a wake was lost", n)
	}
	if parkCalls.Load() == parks {
		t.Fatal("no side ever parked: the space doorbell went unexercised")
	}
}

// popOne blocks until one record arrives and returns a copy of its
// payload.
func popOne(t *testing.T, d *Dir) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var out []byte
	for {
		if d.TryPop(func(kind uint32, a, b []byte) {
			out = append(append([]byte(nil), a...), b...)
		}) {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatal("no record within deadline")
		}
		d.WaitData(waitSlice)
	}
}

// TestRingWrapAndOrder streams thousands of variable-size records
// through a tiny ring from another goroutine: every record must arrive
// intact and in order across many wrap points, with the producer
// parking on ring-full along the way and every TryPop that frees space
// under it waking it.
func TestRingWrapAndOrder(t *testing.T) {
	skipUnsupported(t)
	a, b := pair(t, Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10})
	lost, parks := lostWakes.Load(), parkCalls.Load()
	const n = 5000
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, 1+i%700)
			hdr := []byte(fmt.Sprintf("%06d", i))
			if err := a.TX().Push(RecInline, hdr, payload); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		rec := popOne(t, b.RX())
		if len(rec) != 6+1+i%700 {
			t.Fatalf("record %d: length %d", i, len(rec))
		}
		if string(rec[:6]) != fmt.Sprintf("%06d", i) {
			t.Fatalf("record %d out of order: %q", i, rec[:6])
		}
		for _, c := range rec[6:] {
			if c != byte(i) {
				t.Fatalf("record %d corrupted", i)
			}
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !b.RX().Empty() {
		t.Fatal("ring not drained")
	}
	checkSpaceWakes(t, lost, parks)
}

// TestArenaWrapAndReclaim cycles rendezvous regions through a small
// arena so allocation crosses the wrap (skip regions) and parks on
// arena-full until the consumer's Free wakes it, with the lease counters
// balancing at the end.
func TestArenaWrapAndReclaim(t *testing.T) {
	skipUnsupported(t)
	before := ArenaStats()
	a, b := pair(t, Config{RingBytes: 8 << 10, ArenaBytes: 64 << 10})
	lost, parks := lostWakes.Load(), parkCalls.Load()
	const n = 200
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			size := 5000 + i%9000
			off, region, err := a.TX().Alloc(size)
			if err != nil {
				errc <- err
				return
			}
			for j := range region {
				region[j] = byte(i)
			}
			var ref [16]byte
			putU64(ref[:], off)
			putU64(ref[8:], uint64(size))
			if err := a.TX().Push(RecRendezvous, ref[:]); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		rec := popOne(t, b.RX())
		off, size := getU64(rec), int(getU64(rec[8:]))
		if size != 5000+i%9000 {
			t.Fatalf("region %d: size %d", i, size)
		}
		region, err := b.RX().Region(off, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range region {
			if c != byte(i) {
				t.Fatalf("region %d corrupted", i)
			}
		}
		b.RX().Free(off)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	after := ArenaStats()
	if live := after.Live - before.Live; live != 0 {
		t.Fatalf("leaked %d arena regions", live)
	}
	if after.Allocs-before.Allocs != n {
		t.Fatalf("allocs: %d", after.Allocs-before.Allocs)
	}
	checkSpaceWakes(t, lost, parks)
}

// TestBusyStreamMakesNoWakeSyscall pins the waiter-present words: in a
// stream whose consumer never parks — each record popped right after it
// is pushed, each rendezvous region freed before the next is carved —
// no side rings a doorbell or makes any other wake or park syscall.
func TestBusyStreamMakesNoWakeSyscall(t *testing.T) {
	skipUnsupported(t)
	a, b := pair(t, Config{RingBytes: 8 << 10, ArenaBytes: 64 << 10})
	tx, rx := a.TX(), b.RX()
	wakes, parks := wakeCalls.Load(), parkCalls.Load()
	inline := make([]byte, 200)
	for i := 0; i < 1000; i++ {
		if err := tx.Push(RecInline, inline); err != nil {
			t.Fatal(err)
		}
		off, region, err := tx.Alloc(5000)
		if err != nil {
			t.Fatal(err)
		}
		region[0] = byte(i)
		var ref [16]byte
		putU64(ref[:], off)
		putU64(ref[8:], uint64(len(region)))
		if err := tx.Push(RecRendezvous, ref[:]); err != nil {
			t.Fatal(err)
		}
		if !rx.TryPop(func(uint32, []byte, []byte) {}) {
			t.Fatalf("record %d: inline record not published", i)
		}
		if !rx.TryPop(func(_ uint32, a, _ []byte) { copy(ref[:], a) }) {
			t.Fatalf("record %d: rendezvous record not published", i)
		}
		got, err := rx.Region(getU64(ref[:]), int(getU64(ref[8:])))
		if err != nil || got[0] != byte(i) {
			t.Fatalf("record %d: region %v, %v", i, got[:1], err)
		}
		rx.Free(getU64(ref[:]))
	}
	if n := wakeCalls.Load() - wakes; n != 0 {
		t.Fatalf("%d wake syscalls in a stream whose consumer never parked", n)
	}
	if n := parkCalls.Load() - parks; n != 0 {
		t.Fatalf("%d parks in a stream that never waited", n)
	}
}

// waitPop is popOne for a goroutine other than the test's: it parks on
// the doorbell between tries and returns nil after a few seconds.
func waitPop(d *Dir) []byte {
	deadline := time.Now().Add(5 * time.Second)
	var out []byte
	for !d.TryPop(func(_ uint32, a, b []byte) { out = append(append(out, a...), b...) }) {
		if time.Now().After(deadline) {
			return nil
		}
		d.WaitData(waitSlice)
	}
	return out
}

// TestPingpongLosesNoWake proves the waiter-present protocol loses no
// wake: in a 1000-round echo over the bare rings, where each side parks
// on its doorbell for every reply, no wait runs out its slice while the
// record it waited for sits published in the ring. (A wait that expires
// because the peer was descheduled before publishing is not a lost
// wake and is not counted.)
func TestPingpongLosesNoWake(t *testing.T) {
	skipUnsupported(t)
	a, b := pair(t, Config{RingBytes: 8 << 10, ArenaBytes: 64 << 10})
	const rounds = 1000
	lost, parks := lostWakes.Load(), parkCalls.Load()
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			rec := waitPop(b.RX())
			if rec == nil {
				echoed <- fmt.Errorf("round %d: no record to echo", i)
				return
			}
			if err := b.TX().Push(RecInline, rec); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	for i := 0; i < rounds; i++ {
		msg := fmt.Sprintf("round %04d", i)
		if err := a.TX().Push(RecInline, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		if got := string(waitPop(a.RX())); got != msg {
			t.Fatalf("round %d: echo %q", i, got)
		}
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	if n := lostWakes.Load() - lost; n != 0 {
		t.Fatalf("%d waits ran out their slice with the record already published: a wake was lost", n)
	}
	if parkCalls.Load() == parks {
		t.Fatal("no side ever parked: the doorbells went unexercised")
	}
}

// TestArenaRewindsWhenDrained pins the warm-page rule: once every region
// of a rendezvous pingpong is freed, the next region is carved at the
// start of the arena again instead of marching on into pages no message
// has touched yet, and the lease accounting returns to where it began.
func TestArenaRewindsWhenDrained(t *testing.T) {
	skipUnsupported(t)
	before := ArenaStats()
	a, b := pair(t, Config{RingBytes: 8 << 10, ArenaBytes: 1 << 20})
	const size = 64 << 10
	for i := 0; i < 50; i++ {
		off, region, err := a.TX().Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if off != regHdrLen {
			t.Fatalf("round %d: region carved at arena offset %d, want %d", i, off, regHdrLen)
		}
		for j := range region {
			region[j] = byte(i)
		}
		var ref [16]byte
		putU64(ref[:], off)
		putU64(ref[8:], size)
		if err := a.TX().Push(RecRendezvous, ref[:]); err != nil {
			t.Fatal(err)
		}
		rec := popOne(t, b.RX())
		got, err := b.RX().Region(getU64(rec), int(getU64(rec[8:])))
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) || got[size-1] != byte(i) {
			t.Fatalf("round %d: region corrupted", i)
		}
		b.RX().Free(getU64(rec))
	}
	if live := ArenaStats().Live - before.Live; live != 0 {
		t.Fatalf("%d arena regions still leased after the drained pingpong", live)
	}
	off, _, err := a.TX().Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	a.TX().Free(off)
	if off != regHdrLen {
		t.Fatalf("region after the drained pingpong at arena offset %d, want %d", off, regHdrLen)
	}
}

// TestCloseUnblocksProducer parks a producer on a full ring and closes
// the segment locally from another goroutine: the Push must fail with
// ErrClosed instead of hanging.
func TestCloseUnblocksProducer(t *testing.T) {
	skipUnsupported(t)
	a, _ := pair(t, Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10})
	blob := make([]byte, 1024)
	errc := make(chan error, 1)
	go func() {
		for {
			if err := a.TX().Push(RecInline, blob); err != nil {
				errc <- err
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after Close")
	}
}

// TestPeerGracefulClose pins the loud-death contract: the peer closing
// its side fails a blocked producer with ErrPeerGone promptly.
func TestPeerGracefulClose(t *testing.T) {
	skipUnsupported(t)
	a, b := pair(t, Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10})
	blob := make([]byte, 1024)
	errc := make(chan error, 1)
	go func() {
		for {
			if err := a.TX().Push(RecInline, blob); err != nil {
				errc <- err
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerGone) {
			t.Fatalf("err = %v, want ErrPeerGone", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer never noticed the peer closing")
	}
}

// TestPeerCrashDetectedByHeartbeat kills the attacher the way a crash
// would — no shared state change, heartbeats just stop — and the
// creator's blocked producer must fail with ErrPeerGone once the
// heartbeat goes stale.
func TestPeerCrashDetectedByHeartbeat(t *testing.T) {
	skipUnsupported(t)
	cfg := Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10, PeerTimeout: 150 * time.Millisecond}
	a, b := pair(t, cfg)
	// Keep the victim's heartbeat fresh until the kill.
	b.StampHeartbeat()
	b.Kill()
	blob := make([]byte, 1024)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := a.TX().Push(RecInline, blob)
		if errors.Is(err, ErrPeerGone) {
			return
		}
		if err != nil {
			t.Fatalf("err = %v, want ErrPeerGone", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("crash never detected")
		}
	}
}

// TestOpenWaitsForInit covers the unlink-on-open race window: an
// attacher that opens the file before the creator finished writing the
// header must poll for the magic instead of failing on a half-built
// segment. The file is laid out by hand with everything BUT the magic,
// which lands 50ms later.
func TestOpenWaitsForInit(t *testing.T) {
	skipUnsupported(t)
	name := RandomName()
	cfg := (Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10}).withDefaults()
	img := make([]byte, segSize(cfg))
	putU32(img[hdrVer:], segVersion)
	putU32(img[hdrRing:], uint32(cfg.RingBytes))
	putU32(img[hdrArena:], uint32(cfg.ArenaBytes))
	putU64(img[hdrPID:], uint64(os.Getpid()))
	putU32(img[side0Off+sideState:], stateAttached)
	putU64(img[side0Off+sideHeart:], uint64(time.Now().UnixNano()))
	// No magic yet: this is the creator caught mid-initialisation.
	if err := os.WriteFile(SegPath(name), img, 0o600); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(SegPath(name))
	go func() {
		time.Sleep(50 * time.Millisecond)
		f, err := os.OpenFile(SegPath(name), os.O_RDWR, 0)
		if err != nil {
			return
		}
		var magic [8]byte
		putU64(magic[:], segMagic)
		f.WriteAt(magic[:], hdrMagic)
		f.Close()
	}()
	start := time.Now()
	b, err := Open(name, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("Open returned before the magic was published")
	}
	b.Close()
}

// TestReapOrphans plants a segment whose creator pid is provably dead
// (a reaped child) next to a live one: the sweep removes exactly the
// orphan.
func TestReapOrphans(t *testing.T) {
	skipUnsupported(t)
	cmd := exec.Command("/bin/true")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn child: %v", err)
	}
	deadPID := cmd.Process.Pid
	cmd.Wait()

	orphan := SegPath(RandomName())
	hdr := make([]byte, hdrSize)
	putU32(hdr[hdrVer:], segVersion)
	putU64(hdr[hdrPID:], uint64(deadPID))
	putU64(hdr[hdrMagic:], segMagic)
	if err := os.WriteFile(orphan, hdr, 0o600); err != nil {
		t.Fatal(err)
	}
	// The orphan's doorbells go with it; a doorbell whose segment is
	// already gone is a stray and goes too.
	stray := bellPath(SegPath(RandomName()), 1)
	planted := append(bells(orphan), stray)
	for _, path := range planted {
		if err := syscall.Mkfifo(path, 0o600); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
	}

	live, err := Create(RandomName(), Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	if n := ReapOrphans(); n < 1 {
		t.Fatalf("reaped %d files, want >= 1", n)
	}
	for _, path := range append(planted, orphan) {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the sweep", path)
		}
	}
	for _, path := range segFiles(live) {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("live segment's %s reaped: %v", path, err)
		}
	}

	// A name collision with the orphaned file resolves itself: Create
	// reaps the dead segment and takes the name.
	os.WriteFile(orphan, hdr, 0o600)
	reborn, err := Create(orphan[len(SegPath("")):], Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10})
	if err != nil {
		t.Fatalf("create over orphan: %v", err)
	}
	reborn.Close()
}

// TestCorruptRecordRefused plays a hostile peer scribbling on the shared
// mapping: a record length or a cursor that does not fit what was
// published must be refused without slicing past the ring, and from
// then on the peer is reported gone with the reason.
func TestCorruptRecordRefused(t *testing.T) {
	skipUnsupported(t)
	cases := map[string]func(tx *Dir){
		"huge length":     func(tx *Dir) { putU64(tx.ring[8:], 1<<62) },
		"length > pushed": func(tx *Dir) { putU64(tx.ring[8:], 64) },
		"head past ring":  func(tx *Dir) { tx.head.Store(uint64(len(tx.ring)) + 16) },
		"head below tail": func(tx *Dir) { tx.tail.Store(48) },
		"misaligned tail": func(tx *Dir) { tx.tail.Store(8) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			a, b := pair(t, Config{RingBytes: 4 << 10, ArenaBytes: 64 << 10})
			if err := a.TX().Push(RecInline, []byte("sixteen bytes ok")); err != nil {
				t.Fatal(err)
			}
			corrupt(a.TX())
			for i := 0; i < 2; i++ {
				if b.RX().TryPop(func(uint32, []byte, []byte) { t.Fatal("corrupt record handed out") }) {
					t.Fatal("corrupt record consumed")
				}
			}
			gone, err := b.PeerGone()
			if !gone || !errors.Is(err, ErrPeerGone) || !strings.Contains(err.Error(), "corrupt ring") {
				t.Fatalf("PeerGone = %v, %v; want the corrupt ring reported", gone, err)
			}
		})
	}
}

// TestOpenRefusesForgedGeometry: the header's ring and arena sizes are
// the creator's to forge, and the cursors are masked by them, so Open
// refuses a size that is not a power of two or is below the minimum,
// naming the sizes, before it maps anything.
func TestOpenRefusesForgedGeometry(t *testing.T) {
	skipUnsupported(t)
	for _, c := range []struct {
		name        string
		ring, arena uint32
		want        string
	}{
		{"ring not a power of two", 5000, 64 << 10, "ring 5000"},
		{"arena not a power of two", 4 << 10, 100 << 10, "arena 102400"},
		{"arena below minimum", 4 << 10, 4 << 10, "arena 4096"},
	} {
		t.Run(c.name, func(t *testing.T) {
			name := RandomName()
			img := make([]byte, hdrSize)
			putU32(img[hdrVer:], segVersion)
			putU32(img[hdrRing:], c.ring)
			putU32(img[hdrArena:], c.arena)
			putU64(img[hdrPID:], uint64(os.Getpid()))
			putU64(img[hdrMagic:], segMagic)
			if err := os.WriteFile(SegPath(name), img, 0o600); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(SegPath(name))
			s, err := Open(name, Config{})
			if err == nil {
				s.Close()
				t.Fatal("opened a forged geometry")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
		})
	}
}
