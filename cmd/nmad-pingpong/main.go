// Command nmad-pingpong runs a real two-process multi-rail ping-pong over
// TCP: the identical engine and strategies that drive the simulated
// figures, on genuine sockets. Rails are negotiated via the session
// layer — the server offers N rails, the client brings them all up —
// and the sweep plan travels over the engine itself as message 0.
//
//	nmad-pingpong -serve :7000 -rails 2              # server
//	nmad-pingpong -connect host:7000                 # client, prints sweep
//
// Flags -strategy, -sizes, -segs and -iters shape the client's sweep.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"newmad"
	"newmad/internal/strategy"
)

const (
	planTag = 1
	dataTag = 2
)

// maxSize bounds one message: the server allocates a buffer of the
// largest planned size, the client two.
const maxSize = 256 << 20

// plan is the sweep description the client ships to the server.
type plan struct {
	Sizes []int `json:"sizes"`
	Segs  int   `json:"segs"`
	Iters int   `json:"iters"`
}

// check rejects a plan either side could not run: sizes outside
// [1, maxSize], segment counts outside [1, 65535] (Isendv's limit) and
// fewer than one iteration per size.
func (p plan) check() error {
	if len(p.Sizes) == 0 {
		return fmt.Errorf("plan has no sizes")
	}
	for _, s := range p.Sizes {
		if s < 1 || s > maxSize {
			return fmt.Errorf("size %d outside [1, %d]", s, maxSize)
		}
	}
	if p.Segs < 1 || p.Segs > 0xffff {
		return fmt.Errorf("segs %d outside [1, 65535]", p.Segs)
	}
	if p.Iters < 1 {
		return fmt.Errorf("iters %d below 1", p.Iters)
	}
	return nil
}

func main() {
	var (
		serve     = flag.String("serve", "", "control address to serve a session on (server)")
		rails     = flag.Int("rails", 2, "rails to offer (server)")
		connect   = flag.String("connect", "", "control address to connect to (client)")
		stratArg  = flag.String("strategy", "split", "strategy name ("+strings.Join(strategy.Names(), ", ")+")")
		sizesArg  = flag.String("sizes", "64,4096,65536,1048576", "comma-separated message sizes in bytes")
		segs      = flag.Int("segs", 2, "segments per message")
		iters     = flag.Int("iters", 50, "iterations per size")
		handshake = flag.Duration("handshake-timeout", 30*time.Second, "session handshake timeout")
	)
	flag.Parse()
	if (*serve == "") == (*connect == "") {
		fmt.Fprintln(os.Stderr, "nmad-pingpong: exactly one of -serve or -connect is required")
		os.Exit(2)
	}
	var err error
	if *serve != "" {
		err = runServer(*serve, *rails, *stratArg, *handshake)
	} else {
		err = runClient(*connect, *stratArg, *sizesArg, *segs, *iters, *handshake)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmad-pingpong:", err)
		os.Exit(1)
	}
}

func engine(stratName string) (*newmad.Engine, error) {
	strat, err := newmad.StrategyByName(stratName)
	if err != nil {
		return nil, err
	}
	return newmad.New(newmad.Config{Strategy: strat}), nil
}

func runServer(ctrlAddr string, rails int, stratName string, handshake time.Duration) error {
	if rails < 1 {
		return fmt.Errorf("-rails %d below 1", rails)
	}
	ctx := context.Background()
	eng, err := engine(stratName)
	if err != nil {
		return err
	}
	defer eng.Close()
	specs := make([]newmad.RailSpec, rails)
	for i := range specs {
		specs[i] = newmad.RailSpec{
			Addr:    "0.0.0.0:0",
			Profile: newmad.Profile{Name: fmt.Sprintf("tcp%d", i)},
		}
	}
	srv, err := newmad.ListenSession(ctx, eng, "pingpong-server", ctrlAddr, specs,
		newmad.SessionOptions{HandshakeTimeout: handshake})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("serving on %s, offering %d rail(s)\n", srv.ControlAddr(), rails)
	gate, peer, err := srv.Accept(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("session up with %q, %d rails\n", peer, len(gate.Rails()))

	planBuf := make([]byte, 4096)
	rr := gate.Irecv(planTag, planBuf)
	if err := eng.Wait(rr); err != nil {
		return err
	}
	var p plan
	if err := json.Unmarshal(planBuf[:rr.Len()], &p); err != nil {
		return fmt.Errorf("bad plan: %w", err)
	}
	if err := p.check(); err != nil {
		return fmt.Errorf("bad plan: %w", err)
	}
	fmt.Printf("plan: sizes=%v segs=%d iters=%d\n", p.Sizes, p.Segs, p.Iters)

	buf := make([]byte, slices.Max(p.Sizes))
	for _, size := range p.Sizes {
		for it := 0; it < p.Iters; it++ {
			rr := gate.Irecv(dataTag, buf)
			if err := eng.Wait(rr); err != nil {
				return err
			}
			sr := gate.Isendv(dataTag, segsOf(buf[:size], p.Segs))
			if err := eng.Wait(sr); err != nil {
				return err
			}
		}
	}
	st := gate.Stats()
	fmt.Printf("server done: %d msgs, %d bytes, %d rendezvous, %d aggregates\n",
		st.MsgsSent, st.BytesSent, st.RdvStarted, st.AggPackets)
	return nil
}

func runClient(ctrlAddr, stratName, sizesArg string, segs, iters int, handshake time.Duration) error {
	sizes, err := parseSizes(sizesArg)
	if err != nil {
		return err
	}
	p := plan{Sizes: sizes, Segs: segs, Iters: iters}
	if err := p.check(); err != nil {
		return err
	}
	eng, err := engine(stratName)
	if err != nil {
		return err
	}
	defer eng.Close()
	gate, srvName, err := newmad.ConnectSession(context.Background(), eng, "pingpong-client", ctrlAddr,
		newmad.SessionOptions{HandshakeTimeout: handshake})
	if err != nil {
		return err
	}
	fmt.Printf("connected to %q, %d rails, strategy %s\n", srvName, len(gate.Rails()), stratName)

	planJSON, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if err := eng.Wait(gate.Isend(planTag, planJSON)); err != nil {
		return err
	}

	sendBuf := make([]byte, slices.Max(sizes))
	for i := range sendBuf {
		sendBuf[i] = byte(i)
	}
	recvBuf := make([]byte, len(sendBuf))

	fmt.Printf("%10s %14s %14s\n", "size", "half-rtt", "bandwidth")
	for _, size := range sizes {
		start := time.Now()
		for it := 0; it < iters; it++ {
			rr := gate.Irecv(dataTag, recvBuf)
			sr := gate.Isendv(dataTag, segsOf(sendBuf[:size], segs))
			if err := eng.WaitAll(sr, rr); err != nil {
				return err
			}
		}
		half := time.Since(start) / time.Duration(2*iters)
		mbps := float64(size) / float64(half.Nanoseconds()) * 1e3
		fmt.Printf("%10d %14v %11.1f MB/s\n", size, half, mbps)
	}
	for i, r := range gate.Rails() {
		pkts, bytes := r.Stats()
		fmt.Printf("rail %d (%s): %d packets, %d bytes\n", i, r.Profile().Name, pkts, bytes)
	}
	return nil
}

func segsOf(buf []byte, n int) [][]byte {
	if n <= 1 || len(buf) == 0 {
		return [][]byte{buf}
	}
	per := len(buf) / n
	if per == 0 {
		per = 1
	}
	var out [][]byte
	for off := 0; off < len(buf); {
		end := off + per
		if len(out) == n-1 || end > len(buf) {
			end = len(buf)
		}
		out = append(out, buf[off:end])
		off = end
	}
	return out
}

func parseSizes(arg string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad size %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
