package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"newmad/internal/bench"
	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// des_coll_2rail: a simulated cluster of 8 ranks with the paper's
// Myri-10G and QsNetII rails between every pair, init-time sampling on,
// the split strategy and the cluster's default (sampling-seeded)
// collective selector. Every rank runs the same seeded sequence of
// Allreduce and Bcast calls from 64 B to 1 MiB. It is the only workload
// that runs mpl collectives and the selector, des, simnet, simdrv and
// sampling. Its virtual-time figures repeat exactly for a seed; its
// wall-clock figures (cpu_us_per_msg, setup_s) are the simulator's own
// cost.

const (
	desRanks = 8
	// desOps is the collectives per sequence: p90 needs 100, and with
	// 1000 the p50 moves by about 6 % from seed to seed.
	desOps = 1000
	desMax = 1 << 20
)

// collOp is one collective of the sequence.
type collOp struct {
	bcast bool
	size  int
	root  int // Bcast root
	// off and offH place the op's inputs in the shared patterns.
	off, offH int
}

// desSequence is the seeded collective sequence: half Allreduce, half
// Bcast, each half with stratified log-uniform sizes (multiples of 8 so
// they reduce as int64), interleaved in a seeded order.
func desSequence(seed int64, n int) []collOp {
	r := rand.New(rand.NewSource(int64(mix(uint64(seed) ^ 5))))
	ar := logUniformSizes(seed, 3, n/2, 64, desMax, 8)
	bc := logUniformSizes(seed, 4, n-n/2, 64, desMax, 8)
	ops := make([]collOp, 0, n)
	for _, s := range ar {
		ops = append(ops, collOp{size: s})
	}
	for _, s := range bc {
		ops = append(ops, collOp{bcast: true, size: s, root: r.Intn(desRanks)})
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].off = r.Intn(desPatLen)
		ops[i].offH = r.Intn(desPatLen)
	}
	return ops
}

// desPatLen is the length, in int64 elements and in bytes, of the
// shared input patterns; offsets wrap.
const desPatLen = 1 << 18

// desInputs are the seeded patterns every op reads its inputs from.
type desInputs struct {
	words []int64 // reduction inputs: rank r contributes g + r*h
	bytes []byte  // Bcast payloads
}

func newDESInputs(seed int64) *desInputs {
	in := &desInputs{bytes: seededBytes(seed, 6, desPatLen+desMax)}
	in.words = int64s(seededBytes(seed, 7, 8*desPatLen))
	return in
}

func (in *desInputs) g(op *collOp, e int) int64 { return in.words[(op.off+e)&(desPatLen-1)] }
func (in *desInputs) h(op *collOp, e int) int64 { return in.words[(op.offH+e)&(desPatLen-1)] }

// desOutcome is one sequence's virtual-time result.
type desOutcome struct {
	lat           []float64 // per op makespan, virtual µs
	arUS, bcUS    meanClock // per kind, virtual ns
	total         des.Time  // first start to last end
	bytes, failed int64
	pio, dma      uint64 // NIC sends during the sequence
	pkts, aggPkts uint64
	aggSegs, rdv  uint64
}

// desCluster builds the platform: every pair of ranks joined by the
// given rails, sampled at init time.
func desCluster(nics []simnet.NICParams, strat func() core.Strategy) *bench.Cluster {
	return bench.NewCluster(bench.ClusterConfig{
		Nodes: desRanks, NICs: nics, Strategy: strat, Sample: true,
	})
}

func splitStrategy() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }

func nicStats(c *bench.Cluster) (pio, dma uint64) {
	for i := range c.NICs {
		for j := range c.NICs[i] {
			for _, n := range c.NICs[i][j] {
				p, d := n.Stats()
				pio += p
				dma += d
			}
		}
	}
	return pio, dma
}

// runSequence runs ops on every rank of c, checks every Bcast payload
// byte for byte and every Allreduce result against the directly computed
// sum of the ranks' inputs, and returns the virtual-time outcome.
func runSequence(c *bench.Cluster, ops []collOp, in *desInputs) *desOutcome {
	out := &desOutcome{}
	starts := make([][desRanks]des.Time, len(ops))
	ends := make([][desRanks]des.Time, len(ops))
	bad := make([]bool, len(ops))
	pio0, dma0 := nicStats(c)
	var g0 []core.GateStats
	forGates(c, func(g *core.Gate) { g0 = append(g0, g.Stats()) })
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		rank := comm.Rank()
		send, recv := make([]byte, desMax), make([]byte, desMax)
		for k := range ops {
			op := &ops[k]
			starts[k][rank] = p.Now()
			var ok bool
			if op.bcast {
				buf := recv[:op.size]
				want := in.bytes[op.off : op.off+op.size]
				if rank == op.root {
					copy(buf, want)
				}
				err := comm.Bcast(op.root, buf)
				ok = err == nil && bytes.Equal(buf, want)
			} else {
				n := op.size / 8
				for e := 0; e < n; e++ {
					v := in.g(op, e) + int64(rank)*in.h(op, e)
					binary.LittleEndian.PutUint64(send[8*e:], uint64(v))
				}
				err := comm.Allreduce(send[:op.size], recv[:op.size], mpl.OpSumInt64())
				ok = err == nil
				const N = desRanks
				for e := 0; ok && e < n; e++ {
					want := N*in.g(op, e) + N*(N-1)/2*in.h(op, e)
					ok = int64(binary.LittleEndian.Uint64(recv[8*e:])) == want
				}
			}
			ends[k][rank] = p.Now()
			if !ok {
				bad[k] = true
			}
		}
	})
	c.W.Run()
	first, last := starts[0][0], ends[0][0]
	for k := range ops {
		s, e := starts[k][0], ends[k][0]
		for r := 1; r < desRanks; r++ {
			s, e = min(s, starts[k][r]), max(e, ends[k][r])
		}
		first, last = min(first, s), max(last, e)
		span := int64(e - s)
		out.lat = append(out.lat, float64(span)/1e3)
		if ops[k].bcast {
			out.bcUS.add(span)
		} else {
			out.arUS.add(span)
		}
		if bad[k] {
			out.failed++
		} else {
			out.bytes += int64(ops[k].size)
		}
	}
	out.total = last - first
	pio1, dma1 := nicStats(c)
	out.pio, out.dma = pio1-pio0, dma1-dma0
	i := 0
	forGates(c, func(g *core.Gate) {
		s := g.Stats()
		out.pkts += s.PktsSent - g0[i].PktsSent
		out.aggPkts += s.AggPackets - g0[i].AggPackets
		out.aggSegs += s.AggSegments - g0[i].AggSegments
		out.rdv += s.RdvStarted - g0[i].RdvStarted
		i++
	})
	return out
}

func forGates(c *bench.Cluster, fn func(*core.Gate)) {
	for i := range c.Gates {
		for _, g := range c.Gates[i] {
			if g != nil {
				fn(g)
			}
		}
	}
}

// sameVirtual reports whether two outcomes agree on every virtual-time
// figure.
func sameVirtual(a, b *desOutcome) bool {
	if a.total != b.total || a.failed != b.failed || len(a.lat) != len(b.lat) {
		return false
	}
	for i := range a.lat {
		if a.lat[i] != b.lat[i] {
			return false
		}
	}
	return true
}

func runDES(o opts) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	ops := desSequence(o.seed, desOps)
	in := newDESInputs(o.seed)
	tr := newTracer()

	// The raw figure: the best single simulated rail on the same
	// sequence.
	var best des.Time
	for _, nic := range []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()} {
		out := runSequence(desCluster([]simnet.NICParams{nic}, splitStrategy), ops, in)
		if out.failed > 0 {
			return nil, fmt.Errorf("single-rail %s run failed %d collectives", nic.Name, out.failed)
		}
		if best == 0 || out.total < best {
			best = out.total
		}
	}

	// Repeat the two-rail sequence until --seconds have passed: every
	// repetition rebuilds the cluster (the set-up sample) and must
	// reproduce the first one's virtual-time figures exactly. A traced
	// run alternates untraced and traced repetitions.
	two := []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()}
	strat := splitStrategy
	if o.trace {
		strat = func() core.Strategy { return wrapStrategy(splitStrategy(), tr) }
	}
	var first, traced *desOutcome
	var setups, bare, cpuPerOp []float64
	var onOps, offOps int64
	var onWall, offWall, tracedWall time.Duration
	var ms0, ms1 runtime.MemStats
	var poolGets0, poolGets1 uint64
	var peakRSS float64
	debug.FreeOSMemory() // the single-rail runs' garbage is not this run's memory
	pool0 := core.PoolStats().Live
	start := time.Now()
	for n := 0; time.Since(start) < secs(o.seconds) || n < 2 || (o.trace && traced == nil); n++ {
		if time.Since(start) > hardLimit(o.seconds) {
			return nil, fmt.Errorf("only %d repetitions in %v", n, hardLimit(o.seconds))
		}
		on := o.trace && n%2 == 1
		t0 := time.Now()
		c := desCluster(two, strat)
		setups = append(setups, time.Since(t0).Seconds())
		if o.trace {
			t0 := time.Now()
			bench.NewCluster(bench.ClusterConfig{Nodes: desRanks, NICs: two, Strategy: splitStrategy})
			bare = append(bare, time.Since(t0).Seconds())
		}
		if on {
			runtime.ReadMemStats(&ms0)
			poolGets0 = core.PoolStats().Gets
			tr.enable()
		}
		c0, w0 := cpuTime(), time.Now()
		out := runSequence(c, ops, in)
		wall, cpu := time.Since(w0), cpuTime()-c0
		tr.disable()
		peakRSS = max(peakRSS, rssMB())
		rep.attempted += int64(len(ops))
		rep.failed += out.failed
		if first == nil {
			first = out
		} else if !sameVirtual(first, out) {
			return nil, fmt.Errorf("repetition %d of seed %d changed the virtual-time figures: the simulation is not deterministic", n, o.seed)
		}
		if on {
			runtime.ReadMemStats(&ms1)
			poolGets1 = core.PoolStats().Gets
			onOps += int64(len(ops))
			onWall += wall
			tracedWall = wall
			traced = out
			continue
		}
		cpuPerOp = append(cpuPerOp, float64(cpu.Nanoseconds())/1e3/float64(len(ops)))
		offOps += int64(len(ops))
		offWall += wall
	}
	poolDelta := core.PoolStats().Live - pool0

	p, err := percentiles(append([]float64(nil), first.lat...), 0.5, 0.9)
	if err != nil {
		return nil, err
	}
	vsec := float64(first.total) / 1e9
	E := rep.e2e
	E["lat_us_p50"], E["lat_us_p90"] = p[0], p[1]
	E["msgs_per_s"] = float64(len(ops)) / vsec
	E["goodput_MBps"] = float64(first.bytes) / vsec / 1e6
	E["overhead_x_raw"] = float64(first.total) / float64(best)
	E["cpu_us_per_msg"] = median(cpuPerOp)
	E["setup_s"] = median(setups)
	E["rss_mb"] = peakRSS
	rep.note("samples lat_us_p50=%d lat_us_p90=%d repetitions=%d (virtual figures identical in each)", len(first.lat), len(first.lat), len(setups))
	rep.note("virtual makespan %.1f us two-rail, %.1f us best single rail", float64(first.total)/1e3, float64(best)/1e3)
	if !o.trace {
		return rep, nil
	}
	L := rep.layers
	ops64 := float64(len(ops))
	L["core.pkts_per_msg"] = float64(traced.pkts) / ops64
	L["core.segs_per_pkt"] = ratio(float64(traced.pkts-traced.aggPkts+traced.aggSegs), float64(traced.pkts))
	L["core.rdv_per_msg"] = float64(traced.rdv) / ops64
	L["core.pool_gets_per_msg"] = float64(poolGets1-poolGets0) / ops64
	L["core.pool_live_delta"] = float64(poolDelta)
	L["strategy.submit_ns"] = tr.submit.mean()
	L["strategy.schedule_ns"] = tr.schedule.mean()
	L["strategy.schedule_calls_per_msg"] = ratio(float64(tr.schedule.n.Load()), float64(onOps))
	L["strategy.schedule_hit_frac"] = ratio(float64(tr.scheduleHits.Load()), float64(tr.schedule.n.Load()))
	L["mpl.allreduce_us"] = first.arUS.mean() / 1e3
	L["mpl.bcast_us"] = first.bcUS.mean() / 1e3
	L["simnet.pio_sends_per_coll"] = float64(traced.pio) / ops64
	L["simnet.dma_sends_per_coll"] = float64(traced.dma) / ops64
	L["sampling.setup_ms"] = 1e3 * (median(setups) - median(bare))
	L["runtime.allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / ops64
	L["runtime.gc_per_s"] = ratio(float64(ms1.NumGC-ms0.NumGC), tracedWall.Seconds())
	L["runtime.goroutines"] = float64(runtime.NumGoroutine())
	rateOn := ratio(float64(onOps), onWall.Seconds())
	rateOff := ratio(float64(offOps), offWall.Seconds())
	L["trace.overhead_frac"] = 1 - ratio(rateOn, rateOff)
	L["verify.failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.note("tracing overhead: collectives per wall second traced %.1f, untraced %.1f (%.1f%% lower)", rateOn, rateOff, 100*(1-ratio(rateOn, rateOff)))
	return rep, nil
}
