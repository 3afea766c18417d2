package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/drivers/udpdrv"
	"newmad/internal/relnet"
	"newmad/internal/session"
	"newmad/internal/shmring"
)

// Wall-clock workloads are closed loops in one process: engine A sends,
// engine B receives (and echoes, for the pingpong), the two joined by
// one gate. Each run alternates three kinds of round until --seconds
// have been measured:
//
//   - a raw round on the bare medium (shmring echo, net.Conn stream,
//     copy), the overhead_x_raw denominator;
//   - an engine round, whose messages give every end-to-end figure;
//   - in a traced run only, the same engine round with the layer
//     wrappers switched on.
//
// Interleaving the raw and engine rounds means drift of the host
// (another tenant, frequency scaling) hits the numerator and the
// denominator of each round pair alike.

// bringUps is how many gates each run brings up to time set-up: one
// session bring-up is about a millisecond and a half, so one sample of
// it is mostly scheduling noise.
const bringUps = 60

// handshake bounds one session bring-up.
const handshake = 20 * time.Second

// duo is two engines joined by one gate.
type duo struct {
	engA, engB *core.Engine
	ga, gb     *core.Gate // A's gate to B, B's gate to A
	srv        *session.Server
	rels       []*relnet.Driver // udp rails of both sides
}

func (d *duo) close() {
	d.engA.Close()
	d.engB.Close()
	if d.srv != nil {
		d.srv.Close()
	}
}

// bringUpTimes are one session bring-up's phases.
type bringUpTimes struct{ total, listen, accept, connect time.Duration }

// sessionDuo brings a gate up the way nmad-pingpong does: B listens
// and accepts, A connects, and the rails are negotiated over the
// session control channel. total runs from engine creation until both
// gates are up with every rail.
func sessionDuo(specs []session.RailSpec, strat func() core.Strategy) (*duo, bringUpTimes, error) {
	var bt bringUpTimes
	t0 := time.Now()
	d := &duo{
		engA: core.New(core.Config{Strategy: strat()}),
		engB: core.New(core.Config{Strategy: strat()}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), handshake)
	defer cancel()
	so := session.Options{HandshakeTimeout: handshake}
	tl := time.Now()
	srv, err := session.Listen(ctx, d.engB, "nmbench-b", "127.0.0.1:0", specs, so)
	bt.listen = time.Since(tl)
	if err != nil {
		d.close()
		return nil, bt, err
	}
	d.srv = srv
	type accepted struct {
		g   *core.Gate
		dur time.Duration
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		ta := time.Now()
		g, _, err := srv.Accept(ctx)
		ch <- accepted{g, time.Since(ta), err}
	}()
	tc := time.Now()
	ga, _, cerr := session.Connect(ctx, d.engA, "nmbench-a", srv.ControlAddr(), so)
	bt.connect = time.Since(tc)
	acc := <-ch
	bt.accept = acc.dur
	bt.total = time.Since(t0)
	if cerr != nil || acc.err != nil {
		d.close()
		return nil, bt, fmt.Errorf("session bring-up: connect %v, accept %v", cerr, acc.err)
	}
	d.ga, d.gb = ga, acc.g
	for _, g := range []*core.Gate{d.ga, d.gb} {
		for _, r := range g.Rails() {
			if rd, ok := r.Driver().(*relnet.Driver); ok {
				d.rels = append(d.rels, rd)
			}
		}
	}
	return d, bt, nil
}

// wiredDuo builds the same gate as sessionDuo — the same driver
// constructors, options and profiles — by hand, so that each driver can
// be wrapped before it is attached, and installs the tracer's strategy
// wrapper and engine hooks.
func wiredDuo(specs []session.RailSpec, strat func() core.Strategy, tr *tracer) (*duo, error) {
	d := &duo{
		engA: core.New(core.Config{Strategy: wrapStrategy(strat(), tr), Trace: tr.hook(0)}),
		engB: core.New(core.Config{Strategy: wrapStrategy(strat(), tr), Trace: tr.hook(1)}),
	}
	d.ga, d.gb = d.engA.NewGate("nmbench-b"), d.engB.NewGate("nmbench-a")
	for _, spec := range specs {
		a, b, kind, err := railPair(spec)
		if err != nil {
			d.close()
			return nil, err
		}
		if ra, ok := a.(*relnet.Driver); ok {
			d.rels = append(d.rels, ra, b.(*relnet.Driver))
		}
		d.ga.AddRail(wrapDriver(a, tr, 0, kind))
		d.gb.AddRail(wrapDriver(b, tr, 1, kind))
	}
	return d, nil
}

// railPair connects both ends of one rail as the session layer would:
// tcpdrv over a loopback stream, udpdrv (relnet) over two unconnected
// loopback sockets, shmdrv over a fresh segment created by B.
func railPair(spec session.RailSpec) (a, b core.Driver, kind string, err error) {
	switch spec.Proto {
	case "", "tcp":
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, "", err
		}
		defer l.Close()
		ch := make(chan net.Conn, 1)
		go func() {
			c, _ := l.Accept()
			ch <- c
		}()
		ca, err := net.Dial("tcp", l.Addr().String())
		cb := <-ch
		if err != nil || cb == nil {
			if ca != nil {
				ca.Close()
			}
			if cb != nil {
				cb.Close()
			}
			return nil, nil, "", fmt.Errorf("tcp rail: %v", err)
		}
		o := tcpdrv.Options{Profile: spec.Profile}
		return tcpdrv.New(ca, o), tcpdrv.New(cb, o), "tcpdrv", nil
	case "udp":
		lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
		ua, err := net.ListenUDP("udp", lo)
		if err != nil {
			return nil, nil, "", err
		}
		ub, err := net.ListenUDP("udp", lo)
		if err != nil {
			ua.Close()
			return nil, nil, "", err
		}
		o := udpdrv.Options{Profile: spec.Profile}
		return udpdrv.New(ua, ub.LocalAddr().(*net.UDPAddr), o),
			udpdrv.New(ub, ua.LocalAddr().(*net.UDPAddr), o), "udpdrv", nil
	case "shm":
		sb, err := shmdrv.Create(shmring.RandomName(), shmdrv.Options{Profile: spec.Profile})
		if err != nil {
			return nil, nil, "", err
		}
		sa, err := shmdrv.Attach(sb.SegName(), shmdrv.Options{Profile: sb.Profile()})
		if err != nil {
			sb.Close()
			return nil, nil, "", err
		}
		return sa, sb, "shmdrv", nil
	}
	return nil, nil, "", fmt.Errorf("unknown rail proto %q", spec.Proto)
}

// roundStats accumulates what engine rounds deliver.
type roundStats struct {
	lat                []float64 // µs per latency sample of this round
	msgs, bytes, units int64     // verified messages, their payload, raw-comparable units
	attempted, failed  int64
	elapsed, cpu       time.Duration
}

// merge adds o's counts to s; latency samples stay with the round.
func (s *roundStats) merge(o *roundStats) {
	s.msgs += o.msgs
	s.bytes += o.bytes
	s.units += o.units
	s.attempted += o.attempted
	s.failed += o.failed
	s.elapsed += o.elapsed
	s.cpu += o.cpu
}

// rawMedium is the bare medium a workload is compared with.
type rawMedium interface {
	// round moves n units over the medium and returns the time per unit.
	round(n int) (time.Duration, error)
	close()
}

// wallWorkload describes one wall-clock workload.
type wallWorkload struct {
	rails    []session.RailSpec
	strategy func() core.Strategy
	// round is one engine round's target length; rounds are sized to it
	// during warm-up.
	round time.Duration
	// startUnits is the first warm-up round's size (default 1).
	startUnits int
	newRaw     func() (rawMedium, error)
	// prime, when set, runs once on the measured gate before warm-up.
	prime func(d *duo, st *roundStats) error
	// engine runs n units over d starting at global message index base,
	// accumulating into st (elapsed and cpu are filled by the caller).
	engine func(d *duo, tr *tracer, base int64, n int, st *roundStats) error
	// layers adds workload-specific per-layer figures of a traced run.
	layers func(rep *report, raw []time.Duration)
}

// runWall runs one wall-clock workload for o.seconds.
func runWall(o opts, w wallWorkload) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	// The tracer exists in every run so the rounds share one code path;
	// only a traced run installs its wrappers and switches it on.
	tr := newTracer()

	// Set-up: several session bring-ups; the untraced run keeps the last
	// one for its rounds, the traced run wires its own wrapped gate.
	var totals, listens, accepts, connects []float64
	var d *duo
	for i := 0; i < bringUps; i++ {
		sd, bt, err := sessionDuo(w.rails, w.strategy)
		if err != nil {
			return nil, err
		}
		totals = append(totals, bt.total.Seconds())
		listens = append(listens, ms(bt.listen))
		accepts = append(accepts, ms(bt.accept))
		connects = append(connects, ms(bt.connect))
		if i == bringUps-1 && !o.trace {
			d = sd
		} else {
			sd.close()
		}
	}
	rep.e2e["setup_s"] = median(totals)
	rep.layers["session.listen_ms"] = median(listens)
	rep.layers["session.accept_ms"] = median(accepts)
	rep.layers["session.connect_ms"] = median(connects)
	if o.trace {
		var err error
		if d, err = wiredDuo(w.rails, w.strategy, tr); err != nil {
			return nil, err
		}
	}
	defer d.close()
	raw, err := w.newRaw()
	if err != nil {
		return nil, err
	}
	defer raw.close()

	var base int64
	var all roundStats
	// engineRound runs one round of n units into the fresh st.
	engineRound := func(n int, st *roundStats) error {
		c0, t0 := cpuTime(), time.Now()
		err := w.engine(d, tr, base, n, st)
		st.elapsed, st.cpu = time.Since(t0), cpuTime()-c0
		base += int64(n)
		all.attempted += st.attempted
		all.failed += st.failed
		return err
	}

	if w.prime != nil {
		var st roundStats
		err := w.prime(d, &st)
		all.attempted += st.attempted
		all.failed += st.failed
		if err != nil {
			return nil, err
		}
	}

	// Size the rounds: double until one lasts w.round (raw: a quarter
	// of it).
	nEng, nRaw := max(w.startUnits, 1), 1
	for {
		var rs roundStats
		if err := engineRound(nEng, &rs); err != nil {
			return nil, err
		}
		if rs.elapsed >= w.round {
			break
		}
		nEng *= 2
	}
	for {
		per, err := raw.round(nRaw)
		if err != nil {
			return nil, err
		}
		if time.Duration(nRaw)*per >= w.round/4 {
			break
		}
		nRaw *= 2
	}

	// One cycle is a raw round, an engine round and, in a traced run, a
	// traced engine round. Warm-up runs the same cycles untimed, so lease
	// pools, estimator priors and TCP windows are grown — and the host
	// has settled into the cycle's rhythm — before anything counts.
	var on roundStats
	var engRounds, onRounds perRound
	var rawPer []time.Duration
	var lay layerDelta
	lat := newReservoir(o.seed)
	var latBuf []float64
	var peakRSS float64
	cycle := func(record bool) error {
		per, err := raw.round(nRaw)
		if err != nil {
			return err
		}
		rs := roundStats{lat: latBuf[:0]}
		err = engineRound(nEng, &rs)
		latBuf = rs.lat
		if err != nil {
			return err
		}
		if record {
			peakRSS = max(peakRSS, rssMB())
			rawPer = append(rawPer, per)
			engRounds.add(&rs)
			lat.addAll(rs.lat)
		}
		if !o.trace {
			return nil
		}
		var ts roundStats
		snap := takeSnap(d)
		tr.enable()
		err = engineRound(nEng, &ts)
		tr.disable()
		if record {
			lay.add(snap, takeSnap(d))
			onRounds.add(&ts)
			on.merge(&ts)
		}
		return err
	}
	// Set-up garbage must not count in the measured resident set.
	debug.FreeOSMemory()
	for warmEnd := time.Now().Add(warmup(o.seconds)); time.Now().Before(warmEnd); {
		if err := cycle(false); err != nil {
			return nil, err
		}
	}

	poolLive0 := core.PoolStats().Live
	arenaLive0 := shmring.ArenaStats().Live
	start := time.Now()
	limit := hardLimit(o.seconds)
	// The highest reported percentile, p90, needs ten samples beyond it.
	minSamples := int64(minSamplesFor(0.9))
	for time.Since(start) < secs(o.seconds) || lat.n < minSamples {
		if time.Since(start) > limit {
			return nil, fmt.Errorf("only %d latency samples after %v, need %d", lat.n, limit, minSamples)
		}
		if err := cycle(true); err != nil {
			return nil, err
		}
	}
	poolDelta := core.PoolStats().Live - poolLive0
	arenaDelta := shmring.ArenaStats().Live - arenaLive0

	rep.attempted, rep.failed = all.attempted, all.failed
	p, err := percentiles(lat.xs, 0.5, 0.9)
	if err != nil {
		return nil, err
	}
	rep.e2e["lat_us_p50"], rep.e2e["lat_us_p90"] = p[0], p[1]
	rep.e2e["msgs_per_s"] = median(engRounds.rate)
	rep.e2e["goodput_MBps"] = median(engRounds.goodput)
	rep.e2e["overhead_x_raw"] = pairedRatio(engRounds.perUnit, durs(rawPer))
	rep.e2e["cpu_us_per_msg"] = median(engRounds.cpu)
	rep.e2e["rss_mb"] = peakRSS
	rep.note("samples lat_us_p50=%d lat_us_p90=%d rounds=%d units_per_round=%d raw_units_per_round=%d",
		lat.n, lat.n, len(rawPer), nEng, nRaw)

	if o.trace {
		lay.report(rep, tr, &on, &engRounds, &onRounds)
		rep.layers["core.pool_live_delta"] = float64(poolDelta)
		rep.layers["shmring.arena_live_delta"] = float64(arenaDelta)
		rep.layers["verify.failed_frac"] = ratio(float64(all.failed), float64(all.attempted))
		if w.layers != nil {
			w.layers(rep, rawPer)
		}
	}
	return rep, nil
}

// perRound keeps each round's figures; a run reports their medians, so
// one round that stalls (a relnet retransmission backing off for
// seconds) moves the tail latency but not the typical rate.
type perRound struct{ rate, goodput, cpu, perUnit []float64 }

func (p *perRound) add(rs *roundStats) {
	sec := rs.elapsed.Seconds()
	p.rate = append(p.rate, float64(rs.msgs)/sec)
	p.goodput = append(p.goodput, float64(rs.bytes)/sec/1e6)
	p.cpu = append(p.cpu, ratio(float64(rs.cpu.Nanoseconds())/1e3, float64(rs.msgs)))
	p.perUnit = append(p.perUnit, float64(rs.elapsed)/float64(rs.units))
}

// warmup is the untimed lead-in of a run.
func warmup(seconds float64) time.Duration {
	d := secs(seconds / 10)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// hardLimit bounds the measured phase when samples come in slowly, so
// a run always ends within its time budget.
func hardLimit(seconds float64) time.Duration {
	d := secs(2*seconds + 10)
	if d > 120*time.Second {
		d = 120 * time.Second
	}
	return d
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// snap is the process- and gate-level counter state around a traced
// round.
type snap struct {
	ga, gb       core.GateStats
	poolGets     uint64
	mallocs, gcs uint64
	rel          relnet.Stats
}

func takeSnap(d *duo) snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{ga: d.ga.Stats(), gb: d.gb.Stats(), poolGets: core.PoolStats().Gets, mallocs: ms.Mallocs, gcs: uint64(ms.NumGC)}
	for _, r := range d.rels {
		st := r.Stats()
		s.rel.SegsSent += st.SegsSent
		s.rel.Retransmits += st.Retransmits
		s.rel.FastRetransmits += st.FastRetransmits
		s.rel.Timeouts += st.Timeouts
		s.rel.DupsDropped += st.DupsDropped
	}
	return s
}

// layerDelta sums counter deltas over the traced rounds.
type layerDelta struct {
	pkts, aggPkts, aggSegs, rdv, poolGets, mallocs, gcs uint64
	rel                                                 relnet.Stats
}

func (l *layerDelta) add(a, b snap) {
	l.pkts += b.ga.PktsSent - a.ga.PktsSent + b.gb.PktsSent - a.gb.PktsSent
	l.aggPkts += b.ga.AggPackets - a.ga.AggPackets + b.gb.AggPackets - a.gb.AggPackets
	l.aggSegs += b.ga.AggSegments - a.ga.AggSegments + b.gb.AggSegments - a.gb.AggSegments
	l.rdv += b.ga.RdvStarted - a.ga.RdvStarted + b.gb.RdvStarted - a.gb.RdvStarted
	l.poolGets += b.poolGets - a.poolGets
	l.mallocs += b.mallocs - a.mallocs
	l.gcs += b.gcs - a.gcs
	l.rel.SegsSent += b.rel.SegsSent - a.rel.SegsSent
	l.rel.Retransmits += b.rel.Retransmits - a.rel.Retransmits
	l.rel.FastRetransmits += b.rel.FastRetransmits - a.rel.FastRetransmits
	l.rel.Timeouts += b.rel.Timeouts - a.rel.Timeouts
	l.rel.DupsDropped += b.rel.DupsDropped - a.rel.DupsDropped
}

// report fills the per-layer figures of a traced wall-clock run from
// the traced rounds (on) and the untraced rounds beside them (off).
func (l *layerDelta) report(rep *report, tr *tracer, on *roundStats, offRounds, onRounds *perRound) {
	msgs := float64(on.msgs)
	L := rep.layers
	L["core.isend_ns"] = tr.isend.mean()
	L["core.irecv_ns"] = tr.irecv.mean()
	L["core.wait_ns"] = tr.wait.mean()
	L["core.arrive_to_done_ns"] = tr.arriveToDone.mean()
	L["core.pkts_per_msg"] = ratio(float64(l.pkts), msgs)
	// Packets that carry one segment count once; aggregates count their
	// segment records.
	L["core.segs_per_pkt"] = ratio(float64(l.pkts-l.aggPkts+l.aggSegs), float64(l.pkts))
	L["core.rdv_per_msg"] = ratio(float64(l.rdv), msgs)
	L["core.pool_gets_per_msg"] = ratio(float64(l.poolGets), msgs)
	L["strategy.submit_ns"] = tr.submit.mean()
	L["strategy.schedule_ns"] = tr.schedule.mean()
	L["strategy.schedule_calls_per_msg"] = ratio(float64(tr.schedule.n.Load()), msgs)
	L["strategy.schedule_hit_frac"] = ratio(float64(tr.scheduleHits.Load()), float64(tr.schedule.n.Load()))
	var totalBytes int64
	for _, k := range driverKinds {
		totalBytes += tr.kinds[k].bytes.Load()
	}
	busiest, busiestFrac := "", -1.0
	for _, k := range driverKinds {
		ks := tr.kinds[k]
		if ks.send.n.Load() == 0 {
			continue
		}
		busy := ratio(float64(ks.busyNS.Load()), float64(on.elapsed.Nanoseconds()))
		L[k+".send_ns"] = ks.send.mean()
		L[k+".send_to_complete_us"] = ks.complete.mean() / 1e3
		L[k+".busy_frac"] = busy
		L[k+".bytes_share"] = ratio(float64(ks.bytes.Load()), float64(totalBytes))
		if busy > busiestFrac {
			busiest, busiestFrac = k, busy
		}
	}
	if busiest != "" {
		rep.note("makespan rail: %s (busy_frac %.3f, highest of the rails)", busiest, busiestFrac)
	}
	mb := float64(on.bytes) / 1e6
	L["relnet.retransmit_frac"] = ratio(float64(l.rel.Retransmits), float64(l.rel.SegsSent))
	L["relnet.timeouts_per_MB"] = ratio(float64(l.rel.Timeouts), mb)
	L["relnet.fast_retransmits_per_MB"] = ratio(float64(l.rel.FastRetransmits), mb)
	L["relnet.dups_dropped"] = float64(l.rel.DupsDropped)
	L["runtime.allocs_per_msg"] = ratio(float64(l.mallocs), msgs)
	L["runtime.gc_per_s"] = ratio(float64(l.gcs), on.elapsed.Seconds())
	L["runtime.goroutines"] = float64(runtime.NumGoroutine())
	rateOn, rateOff := median(onRounds.rate), median(offRounds.rate)
	L["trace.overhead_frac"] = 1 - ratio(rateOn, rateOff)
	rep.note("tracing overhead: msgs_per_s traced %.1f, untraced %.1f (%.1f%% lower)", rateOn, rateOff, 100*(1-ratio(rateOn, rateOff)))
}
