// Command nmad-xfer moves a file between two machines over negotiated
// multi-rail TCP sessions, striping large chunks across every rail with
// the split strategy and verifying an end-to-end checksum.
//
//	nmad-xfer -recv :7000 -o out.bin -rails 2     # receiver (server)
//	nmad-xfer -send host:7000 -i in.bin           # sender (client)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"newmad"
	"newmad/internal/strategy"
	"newmad/internal/xfer"
)

func main() {
	var (
		recvAddr  = flag.String("recv", "", "control address to receive on (server)")
		sendAddr  = flag.String("send", "", "control address to send to (client)")
		inFile    = flag.String("i", "", "file to send")
		outFile   = flag.String("o", "", "file to write")
		rails     = flag.Int("rails", 2, "rails to offer (receiver)")
		chunkKB   = flag.Int("chunk", 4096, "chunk size in KiB (sender; the receiver follows it)")
		strat     = flag.String("strategy", "split", "scheduling strategy ("+strings.Join(strategy.Names(), ", ")+")")
		handshake = flag.Duration("handshake-timeout", 30*time.Second, "session handshake timeout")
	)
	flag.Parse()
	if (*recvAddr == "") == (*sendAddr == "") {
		fmt.Fprintln(os.Stderr, "nmad-xfer: exactly one of -recv or -send is required")
		os.Exit(2)
	}
	var err error
	if *recvAddr != "" {
		err = runRecv(*recvAddr, *outFile, *rails, *strat, *handshake)
	} else {
		err = runSend(*sendAddr, *inFile, *strat, *chunkKB, *handshake)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmad-xfer:", err)
		os.Exit(1)
	}
}

func engine(strat string) (*newmad.Engine, error) {
	s, err := newmad.StrategyByName(strat)
	if err != nil {
		return nil, err
	}
	return newmad.New(newmad.Config{Strategy: s}), nil
}

func runRecv(ctrlAddr, outFile string, rails int, strat string, handshake time.Duration) error {
	if outFile == "" {
		return fmt.Errorf("-o is required with -recv")
	}
	if rails < 1 {
		return fmt.Errorf("-rails %d below 1", rails)
	}
	eng, err := engine(strat)
	if err != nil {
		return err
	}
	defer eng.Close()
	specs := make([]newmad.RailSpec, rails)
	for i := range specs {
		specs[i] = newmad.RailSpec{Addr: "0.0.0.0:0", Profile: newmad.Profile{Name: fmt.Sprintf("tcp%d", i)}}
	}
	srv, err := newmad.ListenSession(context.Background(), eng, "xfer-recv", ctrlAddr, specs,
		newmad.SessionOptions{HandshakeTimeout: handshake})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("receiving on %s (%d rails)\n", srv.ControlAddr(), rails)
	gate, peer, err := srv.Accept(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("session up with %q\n", peer)
	f, err := os.Create(outFile)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	n, err := xfer.Recv(eng, gate, f)
	if err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("received %d bytes in %v (%.1f MB/s), checksum OK\n", n, el, float64(n)/el.Seconds()/1e6)
	for i, r := range gate.Rails() {
		pkts, bytes := r.Stats()
		fmt.Printf("rail %d: %d packets, %d bytes\n", i, pkts, bytes)
	}
	return f.Sync()
}

func runSend(ctrlAddr, inFile, strat string, chunkKB int, handshake time.Duration) error {
	if inFile == "" {
		return fmt.Errorf("-i is required with -send")
	}
	eng, err := engine(strat)
	if err != nil {
		return err
	}
	defer eng.Close()
	f, err := os.Open(inFile)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	gate, peer, err := newmad.ConnectSession(context.Background(), eng, "xfer-send", ctrlAddr,
		newmad.SessionOptions{HandshakeTimeout: handshake})
	if err != nil {
		return err
	}
	fmt.Printf("sending %d bytes to %q over %d rails\n", st.Size(), peer, len(gate.Rails()))
	start := time.Now()
	if err := xfer.Send(eng, gate, f, st.Size(), xfer.Options{ChunkSize: chunkKB << 10}); err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("sent in %v (%.1f MB/s)\n", el, float64(st.Size())/el.Seconds()/1e6)
	return nil
}
