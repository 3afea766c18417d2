package core_test

import (
	"fmt"
	"sync"
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// sinkDrv is an event-driven null rail: every send completes
// synchronously and the bytes are discarded. It isolates the engine's own
// send path — collect, backlog, strategy, post, completion — from any
// peer, so the benchmark below measures exactly how that path scales
// across gates.
type sinkDrv struct{ injectorDrv }

// BenchmarkMultiGateSendThroughput measures engine send throughput as the
// message load spreads over more gates, one sender goroutine per gate.
// Under the seed's single engine lock the figures were flat (or worse)
// with gate count; with per-gate progress domains they scale until the
// machine runs out of cores.
func BenchmarkMultiGateSendThroughput(b *testing.B) {
	payload := fill(1024, 9)
	for _, gates := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gates-%d", gates), func(b *testing.B) {
			eng := core.New(core.Config{Strategy: strategy.Must("balance")})
			gs := make([]*core.Gate, gates)
			for i := range gs {
				gs[i] = eng.NewGate(fmt.Sprintf("peer%d", i))
				gs[i].AddRail(&sinkDrv{})
			}
			per := (b.N + gates - 1) / gates
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, g := range gs {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := eng.Wait(g.Isend(1, payload)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
