package shmdrv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"newmad/internal/core"
	"newmad/internal/shmring"
	"newmad/internal/strategy"
)

// TestMain is the orphaned-segment sweeper: any /dev/shm file left by a
// crashed earlier run (its creator pid dead) is reaped before this run
// starts, and whatever this run manages to leak is swept on the way
// out. Tests killed hard mid-run therefore cannot poison the next run.
func TestMain(m *testing.M) {
	shmring.ReapOrphans()
	code := m.Run()
	shmring.ReapOrphans()
	os.Exit(code)
}

func skipUnsupported(t *testing.T) {
	t.Helper()
	if !Supported() {
		t.Skip("shared-memory segments unsupported on this platform")
	}
}

// sink is a core.Events recorder that can HOLD arrived packets — their
// leases stay live — to observe the arena lease lifecycle from outside.
type sink struct {
	mu        sync.Mutex
	hold      bool
	held      []*core.Packet
	payloads  [][]byte
	completes int
	downs     []error
}

func (s *sink) SendComplete(rail int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completes++
}

func (s *sink) SendFailed(rail int, p *core.Packet, err error) {}

func (s *sink) Arrive(rail int, p *core.Packet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.payloads = append(s.payloads, append([]byte(nil), p.Payload...))
	if s.hold {
		s.held = append(s.held, p)
		return
	}
	p.Release()
}

func (s *sink) RailDown(rail int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.downs = append(s.downs, err)
}

func (s *sink) releaseHeld() {
	s.mu.Lock()
	held := s.held
	s.held = nil
	s.mu.Unlock()
	for _, p := range held {
		p.Release()
	}
}

func (s *sink) counts() (arrivals, completes, downs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.payloads), s.completes, len(s.downs)
}

func (s *sink) payload(i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.payloads[i]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testPair(t *testing.T, opts Options) (*Driver, *Driver, *sink, *sink) {
	t.Helper()
	a, b, err := Pair(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	sa, sb := &sink{}, &sink{}
	a.Bind(0, sa)
	b.Bind(0, sb)
	return a, b, sa, sb
}

func dataPkt(tag uint32, payload []byte) *core.Packet {
	return &core.Packet{
		Hdr: core.Header{
			Kind: core.KData, Tag: tag, MsgSegs: 1,
			MsgLen: uint64(len(payload)), SegLen: uint64(len(payload)),
		},
		Payload: payload,
	}
}

// TestTwoPathsDeliver pushes frames down both size paths — inline
// through the ring, rendezvous through the arena, up to the largest
// frame the engine posts — and byte-verifies all three at the peer.
func TestTwoPathsDeliver(t *testing.T) {
	skipUnsupported(t)
	a, _, sa, sb := testPair(t, testOptions())

	inline := bytes.Repeat([]byte{0xAA}, 1000)             // 1 KiB + header: inline
	rdv := bytes.Repeat([]byte{0xBB}, 40<<10)              // 40 KiB: arena region
	largest := bytes.Repeat([]byte{0xCC}, core.MaxPayload) // the largest frame: one arena region
	for i, payload := range [][]byte{inline, rdv, largest} {
		if err := a.Send(dataPkt(uint32(i), payload)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, "three frames", func() bool { n, _, _ := sb.counts(); return n >= 3 })
	if _, comp, _ := sa.counts(); comp != 3 {
		t.Fatalf("completions: %d", comp)
	}
	for i, want := range [][]byte{inline, rdv, largest} {
		if !bytes.Equal(sb.payload(i), want) {
			t.Fatalf("frame %d corrupted (%d bytes)", i, len(sb.payload(i)))
		}
	}
}

// TestRendezvousLeaseSingleOwner pins the single-owner rule for arena
// regions: while the receiver holds the delivered packet, exactly its
// region is live in the arena accounting (and the wrapped lease is live
// in the pool accounting); releasing the packet — the receiver's act,
// not the pool's — frees the slot.
func TestRendezvousLeaseSingleOwner(t *testing.T) {
	skipUnsupported(t)
	poolBefore := core.PoolStats()
	arenaBefore := shmring.ArenaStats()
	a, _, _, sb := testPair(t, testOptions())
	// Under the sink's lock: the receiver goroutine reads hold in Arrive,
	// and the shared-memory ring gives the race detector no ordering.
	sb.mu.Lock()
	sb.hold = true
	sb.mu.Unlock()

	payload := bytes.Repeat([]byte{0x5E}, 100<<10)
	if err := a.Send(dataPkt(1, payload)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rendezvous arrival", func() bool { n, _, _ := sb.counts(); return n >= 1 })
	if live := shmring.ArenaStats().Live - arenaBefore.Live; live != 1 {
		t.Fatalf("arena regions live while packet held: %d, want 1", live)
	}
	if !bytes.Equal(sb.payload(0), payload) {
		t.Fatal("payload corrupted")
	}
	sb.releaseHeld()
	if live := shmring.ArenaStats().Live - arenaBefore.Live; live != 0 {
		t.Fatalf("arena regions live after release: %d, want 0", live)
	}
	if live := core.PoolStats().Live - poolBefore.Live; live != 0 {
		t.Fatalf("pool leases live after release: %d, want 0", live)
	}
}

// TestSendAfterKillRefused pins clean-failover semantics: a killed
// driver refuses Sends with an error (packet NOT accepted), which is
// the engine's cue to reroute the packet onto surviving rails.
func TestSendAfterKillRefused(t *testing.T) {
	skipUnsupported(t)
	a, _, _, _ := testPair(t, testOptions())
	a.Kill()
	if err := a.Send(dataPkt(1, []byte("x"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Kill: %v, want ErrClosed", err)
	}
}

// TestPeerKillReportsRailDownOnce kills one side mid-conversation: the
// survivor must deliver everything already published, then report
// exactly one RailDown.
func TestPeerKillReportsRailDownOnce(t *testing.T) {
	skipUnsupported(t)
	a, b, _, sb := testPair(t, testOptions())
	if err := a.Send(dataPkt(1, []byte("before the crash"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-crash arrival", func() bool { n, _, _ := sb.counts(); return n >= 1 })
	a.Kill()
	_ = b // b's receiver detects the stale heartbeat
	waitFor(t, "rail-down report", func() bool { _, _, d := sb.counts(); return d >= 1 })
	time.Sleep(50 * time.Millisecond)
	if _, _, d := sb.counts(); d != 1 {
		t.Fatalf("RailDown reported %d times, want exactly once", d)
	}
	if got := sb.payload(0); string(got) != "before the crash" {
		t.Fatalf("pre-crash payload: %q", got)
	}
}

// TestSegmentUnlinkedOnceAttached pins the no-leakable-file property:
// as soon as both sides are up, the creator unlinks the backing file
// and the doorbell FIFOs beside it, so an established rail exists only
// as the two mappings and their open doorbells.
func TestSegmentUnlinkedOnceAttached(t *testing.T) {
	skipUnsupported(t)
	a, _, _, _ := testPair(t, testOptions())
	waitFor(t, "segment unlink", func() bool {
		left, err := filepath.Glob(shmring.SegPath(a.SegName()) + "*")
		return err == nil && len(left) == 0
	})
}

// TestAttachOrCreateRace races New on one name from two goroutines:
// exactly one creates, the other attaches, and the pair works.
func TestAttachOrCreateRace(t *testing.T) {
	skipUnsupported(t)
	name := shmring.RandomName()
	type res struct {
		d   *Driver
		err error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			d, err := New(name, testOptions())
			results <- res{d, err}
		}()
	}
	r1, r2 := <-results, <-results
	if r1.err != nil || r2.err != nil {
		t.Fatalf("New race: %v / %v", r1.err, r2.err)
	}
	defer r1.d.Close()
	defer r2.d.Close()
	s1, s2 := &sink{}, &sink{}
	r1.d.Bind(0, s1)
	r2.d.Bind(0, s2)
	if err := r1.d.Send(dataPkt(1, []byte("raced"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "raced delivery", func() bool { n, _, _ := s2.counts(); return n >= 1 })
}

// mapped reaches one of a direction's unexported views of the mapping
// ("ring" or "arena"), so the test can play a hostile peer scribbling on
// it.
func mapped(d *shmring.Dir, field string) []byte {
	f := reflect.ValueOf(d).Elem().FieldByName(field)
	return *(*[]byte)(unsafe.Pointer(f.UnsafeAddr()))
}

// TestHostileRecordsRailDownOnce: a ring record whose length word does
// not fit what the peer published, a record of a retired or unknown
// kind, an inline record above DefaultInlineMax or that does not decode
// as a frame, a rendezvous reference that is not 16 bytes, claims a
// frame above the engine's bound, or names a region that is out of
// bounds, never carved or already delivered, and a region state word
// rewritten while the receiver holds the region each end the rail with
// exactly one RailDown naming the cause, after delivering what came
// before — never a panic.
func TestHostileRecordsRailDownOnce(t *testing.T) {
	skipUnsupported(t)
	ref := func(off, n uint64) []byte {
		var b [16]byte
		putU64(b[:], off)
		putU64(b[8:], n)
		return b[:]
	}
	// The pre-forgery packet rides the rendezvous path, so its record is
	// the first in the ring and its region the first in the arena.
	before := bytes.Repeat([]byte("before the forgery "), 512)
	cases := []struct {
		name, reason string
		forge        func(tx *shmring.Dir) error
		// held forges after the pre-forgery packet arrived and before
		// the receiver releases it, freeing its arena region.
		held bool
	}{
		{"length word", "corrupt ring", func(tx *shmring.Dir) error {
			if err := tx.Push(shmring.RecInline, []byte("sixteen bytes ok")); err != nil {
				return err
			}
			ring := mapped(tx, "ring")
			for i := 0; i < len(ring)-16; i += 16 {
				// The forged record is the second one in the ring.
				if string(ring[i+16:i+32]) == "sixteen bytes ok" {
					putU64(ring[i+8:], 1<<40)
					return nil
				}
			}
			return errors.New("forged record not found in the ring")
		}, false},
		{"inline above threshold", "corrupt inline record", func(tx *shmring.Dir) error {
			return tx.Push(shmring.RecInline, make([]byte, DefaultInlineMax+1))
		}, false},
		{"undecodable frame", "corrupt frame", func(tx *shmring.Dir) error {
			return tx.Push(shmring.RecInline, []byte("not a frame"))
		}, false},
		{"rendezvous misaligned", "corrupt rendezvous record", func(tx *shmring.Dir) error {
			return tx.Push(shmring.RecRendezvous, ref(1<<40+8, 64))
		}, false},
		{"rendezvous past arena", "out of bounds", func(tx *shmring.Dir) error {
			// A region 4 KiB before the arena's end claiming 8 KiB.
			return tx.Push(shmring.RecRendezvous, ref(uint64(len(mapped(tx, "arena")))-4080, 8<<10))
		}, false},
		{"rendezvous above frame bound", "exceeds", func(tx *shmring.Dir) error {
			return tx.Push(shmring.RecRendezvous, ref(16, maxFrame+1))
		}, false},
		{"rendezvous reference length", "17-byte reference", func(tx *shmring.Dir) error {
			return tx.Push(shmring.RecRendezvous, append(ref(16, 64), 0))
		}, false},
		{"rendezvous never carved", "corrupt rendezvous record", func(tx *shmring.Dir) error {
			return tx.Push(shmring.RecRendezvous, ref(512<<10+16, 0))
		}, false},
		{"rendezvous delivered twice", "corrupt rendezvous record", func(tx *shmring.Dir) error {
			return tx.Push(shmring.RecRendezvous, append([]byte(nil), mapped(tx, "ring")[16:32]...))
		}, false},
		{"retired kind", "unknown kind 3", func(tx *shmring.Dir) error {
			return tx.Push(3, ref(0, 1<<62)[8:])
		}, false},
		{"unknown kind", "unknown kind 99", func(tx *shmring.Dir) error {
			return tx.Push(99, []byte("sixteen bytes ok"))
		}, false},
		{"region state forged while held", "arena region", func(tx *shmring.Dir) error {
			// The state word follows the first region's 8-byte length.
			(*atomic.Uint32)(unsafe.Pointer(&mapped(tx, "arena")[8])).Store(0xbad)
			return nil
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b, err := Pair(testOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				a.Close()
				b.Close()
			})
			a.Bind(0, &sink{})
			if err := a.Send(dataPkt(1, before)); err != nil {
				t.Fatal(err)
			}
			sb := &sink{hold: c.held}
			if !c.held {
				if err := c.forge(a.seg.TX()); err != nil {
					t.Fatal(err)
				}
			}
			b.Bind(0, sb) // b's receiver starts consuming only now
			if c.held {
				waitFor(t, "pre-forgery arrival", func() bool { n, _, _ := sb.counts(); return n >= 1 })
				if err := c.forge(a.seg.TX()); err != nil {
					t.Fatal(err)
				}
				sb.releaseHeld()
			}
			waitFor(t, "rail-down report", func() bool { _, _, d := sb.counts(); return d >= 1 })
			time.Sleep(50 * time.Millisecond)
			arrivals, _, downs := sb.counts()
			if downs != 1 || arrivals != 1 {
				t.Fatalf("%d RailDowns and %d arrivals, want 1 and 1", downs, arrivals)
			}
			if got := sb.payload(0); !bytes.Equal(got, before) {
				t.Fatalf("pre-forgery payload corrupted (%d bytes)", len(got))
			}
			sb.mu.Lock()
			err = sb.downs[0]
			sb.mu.Unlock()
			if !strings.Contains(err.Error(), c.reason) {
				t.Fatalf("RailDown reason %q does not name %q", err, c.reason)
			}
		})
	}
}

// TestAttachRefusesSmallArena: the creator chooses the geometry, so an
// attacher refuses a segment whose arena cannot hold one region of the
// largest frame, naming both sizes, and the creator sees its peer go.
func TestAttachRefusesSmallArena(t *testing.T) {
	skipUnsupported(t)
	name := shmring.RandomName()
	seg, err := shmring.Create(name, shmring.Config{ArenaBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	d, err := Attach(name, testOptions())
	if err == nil {
		d.Close()
		t.Fatal("attached to a 1 MiB arena")
	}
	for _, want := range []string{"1048576-byte arena", fmt.Sprintf("%d-byte frame", maxFrame)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if gone, _ := seg.PeerGone(); !gone {
		t.Fatal("refused attacher left its side open")
	}
}

// TestLargestMessagesCrossTheArena sends, through a fifo engine pair
// over one shm rail, a message one byte past two maximal packets. Its
// chunks take the arena one region at a time; the message arrives
// byte-exact, and once both engines close no arena region or pool lease
// is left live.
func TestLargestMessagesCrossTheArena(t *testing.T) {
	skipUnsupported(t)
	arenaBefore, poolBefore := shmring.ArenaStats().Live, core.PoolStats().Live
	a, b, err := Pair(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	engA := core.New(core.Config{Strategy: strategy.Must("fifo")})
	engB := core.New(core.Config{Strategy: strategy.Must("fifo")})
	gA, gB := engA.NewGate("B"), engB.NewGate("A")
	gA.AddRail(a)
	gB.AddRail(b)

	msg := make([]byte, 2*core.MaxPayload+1)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	recv := make([]byte, len(msg))
	rr := gB.Irecv(1, recv)
	sr := gA.Isend(1, msg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := engA.WaitCtx(ctx, sr); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := engB.WaitCtx(ctx, rr); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch")
	}
	engA.Close()
	engB.Close()
	waitFor(t, "arena regions and pool leases released", func() bool {
		return shmring.ArenaStats().Live == arenaBefore && core.PoolStats().Live == poolBefore
	})
}
