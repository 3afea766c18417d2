package newmad_test

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"newmad"
)

func TestPublicAPISimExchange(t *testing.T) {
	pair := newmad.NewSimPair(newmad.SimPairConfig{
		NICs:     []newmad.NICParams{newmad.Myri10G(), newmad.QsNetII()},
		Strategy: newmad.StrategySplit,
		Sample:   true,
	})
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	recv := make([]byte, len(msg))
	pair.W.Spawn("rx", func(p *newmad.Proc) {
		rr := pair.GateBA.Irecv(1, recv)
		newmad.WaitSim(p, rr)
	})
	pair.W.Spawn("tx", func(p *newmad.Proc) {
		sr := pair.GateAB.Isend(1, msg)
		newmad.WaitSim(p, sr)
	})
	pair.W.Run()
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch through public API")
	}
	// The split strategy must have used both rails for a 1 MB body.
	p0, b0 := pair.GateAB.Rails()[0].Stats()
	p1, b1 := pair.GateAB.Rails()[1].Stats()
	if p0 == 0 || p1 == 0 || b0 == 0 || b1 == 0 {
		t.Fatalf("stripping unused: rail0 %d/%d rail1 %d/%d", p0, b0, p1, b1)
	}
}

func TestStrategyConstructors(t *testing.T) {
	for _, s := range []newmad.Strategy{
		newmad.StrategyFIFO(), newmad.StrategyAggreg(), newmad.StrategyBalance(),
		newmad.StrategyAggRail(), newmad.StrategySplit(), newmad.StrategySplitIso(),
	} {
		if s.Name() == "" {
			t.Error("unnamed strategy")
		}
	}
	for _, name := range []string{"fifo", "aggreg", "balance", "aggrail", "split", "split-iso"} {
		s, err := newmad.StrategyByName(name)
		if err != nil || s.Name() != name {
			t.Errorf("StrategyByName(%q): %v", name, err)
		}
	}
	if _, err := newmad.StrategyByName("nope"); err == nil {
		t.Error("bad name accepted")
	}
}

func TestSampleRatios(t *testing.T) {
	r := newmad.SampleRatios([]float64{3e9, 1e9})
	if r[0] != 0.75 || r[1] != 0.25 {
		t.Fatalf("ratios %v", r)
	}
}

func TestProfilesPersistence(t *testing.T) {
	path := t.TempDir() + "/p.json"
	in := []newmad.Profile{{Name: "x", Bandwidth: 5e8, EagerMax: 1024}}
	if err := newmad.SaveProfiles(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := newmad.LoadProfiles(path)
	if err != nil || len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round trip: %v %v", out, err)
	}
}

func TestPublicAPITCP(t *testing.T) {
	engA := newmad.New(newmad.Config{Strategy: newmad.StrategyBalance()})
	engB := newmad.New(newmad.Config{Strategy: newmad.StrategyBalance()})
	defer engA.Close()
	defer engB.Close()
	gateAB := engA.NewGate("B")
	gateBA := engB.NewGate("A")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acc := make(chan newmad.Driver, 1)
	errc := make(chan error, 1)
	go func() {
		d, err := newmad.AcceptTCP(l, newmad.TCPOptions{})
		if err != nil {
			errc <- err
			return
		}
		acc <- d
	}()
	dialer, err := newmad.DialTCP(l.Addr().String(), newmad.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gateAB.AddRail(dialer)
	select {
	case d := <-acc:
		gateBA.AddRail(d)
	case err := <-errc:
		t.Fatal(err)
	}

	msg := []byte("real sockets through the facade")
	recv := make([]byte, len(msg))
	done := make(chan struct{})
	go func() {
		defer close(done)
		rr := gateBA.Irecv(1, recv)
		if err := engB.Wait(rr); err != nil {
			t.Error(err)
		}
	}()
	sr := gateAB.Isend(1, msg)
	if err := engA.Wait(sr); err != nil {
		t.Fatal(err)
	}
	<-done
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch over TCP facade")
	}
}

// TestPublicAPICancelAndDeadlines exercises the context-aware request
// lifecycle through the facade: virtual-time deadlines via WaitSimCtx,
// Request.Cancel propagating an abort to the peer, and the negotiated
// session API's ctx + SessionOptions signatures.
func TestPublicAPICancelAndDeadlines(t *testing.T) {
	pair := newmad.NewSimPair(newmad.SimPairConfig{
		NICs:     []newmad.NICParams{newmad.Myri10G(), newmad.QsNetII()},
		Strategy: newmad.StrategySplit,
	})
	var deadlineErr, recvErr error
	pair.W.Spawn("deadline", func(p *newmad.Proc) {
		// Nobody serves tag 1: the wait must expire on the virtual clock.
		rr := pair.GateBA.Irecv(1, make([]byte, 16))
		ctx := newmad.WithSimTimeout(context.Background(), p, time.Millisecond)
		deadlineErr = newmad.WaitSimCtx(ctx, p, rr)
		rr.Cancel(deadlineErr)
		// A cancelled send aborts the peer's matching receive.
		sr := pair.GateBA.Isend(2, make([]byte, 1<<20))
		sr.Cancel(nil)
		_ = newmad.WaitSimCtx(context.Background(), p, sr)
	})
	pair.W.Spawn("peer", func(p *newmad.Proc) {
		p.Sleep(5e6) // 5ms: past the deadline and the cancel
		rr := pair.GateAB.Irecv(2, make([]byte, 1<<20))
		recvErr = newmad.WaitSimCtx(context.Background(), p, rr)
	})
	pair.W.Run()
	if !errors.Is(deadlineErr, context.DeadlineExceeded) {
		t.Fatalf("WaitSimCtx = %v, want DeadlineExceeded", deadlineErr)
	}
	if !errors.Is(recvErr, newmad.ErrMsgAborted) {
		t.Fatalf("aborted recv = %v, want ErrMsgAborted", recvErr)
	}
}

func TestSessionFacadeCtx(t *testing.T) {
	eng := newmad.New(newmad.Config{Strategy: newmad.StrategySplit()})
	defer eng.Close()
	srv, err := newmad.ListenSession(context.Background(), eng, "srv", "127.0.0.1:0",
		[]newmad.RailSpec{{Addr: "127.0.0.1:0"}},
		newmad.SessionOptions{HandshakeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := srv.Accept(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Accept with expired ctx = %v", err)
	}
}

func TestTraceCollectorFacade(t *testing.T) {
	col := newmad.NewTraceCollector(10)
	pair := newmad.NewSimPair(newmad.SimPairConfig{
		NICs:     []newmad.NICParams{newmad.QsNetII()},
		Strategy: newmad.StrategyFIFO,
		TraceA:   col.Hook(),
	})
	recv := make([]byte, 4)
	pair.W.Spawn("rx", func(p *newmad.Proc) {
		newmad.WaitSim(p, pair.GateBA.Irecv(1, recv))
	})
	pair.W.Spawn("tx", func(p *newmad.Proc) {
		newmad.WaitSim(p, pair.GateAB.Isend(1, []byte{1, 2, 3, 4}))
	})
	pair.W.Run()
	if len(col.Events()) == 0 {
		t.Fatal("no trace events collected")
	}
}

// facadeAllowlist keeps the facade names that no caller in the tree
// names and no kept facade function's signature names, each with the
// reason it stays.
var facadeAllowlist = map[string]string{
	"ErrCanceled":     "errors.Is target for a cancelled request",
	"ErrRailDown":     "errors.Is target for a send on a failed rail",
	"ErrPeerRecvGone": "errors.Is target for a send whose peer cancelled the receive",
	"ReapShmOrphans":  "the only sweep of shm segments orphaned before attach",
	"Rail":            "Gate.Rails and Gate.AddRail return it",
	"SendReq":         "Gate.Isend and Packer.Send return it",
	"RecvReq":         "Gate.Irecv returns it",
	"Packer":          "Gate.NewMessage returns it",
	"Backlog":         "a custom Strategy's Submit and Schedule take it",
	"Unit":            "a custom Strategy's Submit takes it",
	"Packet":          "a custom Strategy's Schedule returns it and a custom Driver's Send takes it",
	"Header":          "Packet.Hdr's type",
	"Clock":           "Config.Clock's type",
	"TraceEvent":      "Config.Trace takes it and TraceCollector.Events returns it",
	"Coll":            "Comm's nonblocking collectives return it",
	"CollSelector":    "Comm.Selector returns it and Comm.SetSelector takes it",
	"ChaosFault":      "ChaosSchedule.Add takes it",
	"ChaosArmed":      "ChaosSchedule.Arm returns it",
}

// TestFacadeNamesHaveUsers keeps newmad.go to what a caller names. An
// exported name stays if an example, a command, a root test or an
// nmbench file names it as newmad.X, if the signature of a facade
// function kept that way names it, or if facadeAllowlist gives a reason.
func TestFacadeNamesHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "newmad.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	sigNames := map[string][]string{} // facade func -> names in its signature
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared[d.Name.Name] = true
			ast.Inspect(d.Type, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // another package's name
				case *ast.Ident:
					sigNames[d.Name.Name] = append(sigNames[d.Name.Name], n.Name)
				}
				return true
			})
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					declared[sp.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						declared[id.Name] = true
					}
				}
			}
		}
	}

	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"examples", "cmd", "nmbench"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	kept := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, im := range f.Imports {
			if im.Path.Value == `"newmad"` {
				local = "newmad"
				if im.Name != nil {
					local = im.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					kept[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for fn, names := range sigNames {
		if kept[fn] {
			for _, n := range names {
				kept[n] = true
			}
		}
	}

	var unused []string
	for name := range declared {
		if ast.IsExported(name) && !kept[name] && facadeAllowlist[name] == "" {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("facade names with no user, no kept signature and no allowlist reason: %s",
			strings.Join(unused, ", "))
	}
	for name := range facadeAllowlist {
		if !declared[name] {
			t.Errorf("facadeAllowlist names %s, which newmad.go no longer declares", name)
		}
	}
}
