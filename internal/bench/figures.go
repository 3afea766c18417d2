// Package bench reproduces the paper's evaluation on simulated hosts.
//
// Every figure is one row of the figures table: id, title, Y unit, an X
// axis (a size list or fault scenarios from the faults catalogue) and
// its series. A series is a platform — strategy name, rails, host PIO
// lanes, segments, sampling, reliable rails — plus one op: pingpong
// latency or bandwidth, the mixed workload, a collective makespan, or a
// chaos op reported as p50/p99 per scenario. Build runs a row; Pair and
// Cluster come from one wiring loop; testdata/ pins every figure's CSV.
package bench

import (
	"fmt"
	"sort"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/simnet"
	"newmad/internal/simnet/topo"
	"newmad/internal/strategy"
)

// Quality controls measurement effort.
type Quality struct {
	Warmup int
	Iters  int // >= 1: every figure divides by it
	Verify bool
}

// Default is the quality used by the CLI.
func Default() Quality { return Quality{Warmup: 2, Iters: 8} }

// Fast is a reduced-effort quality for tests.
func Fast() Quality { return Quality{Warmup: 1, Iters: 3} }

// opKind is the closed set of measurements a series can run.
type opKind int

const (
	opLatency   opKind = iota // pingpong half-RTT over a Pair (ns)
	opBandwidth               // the same pingpong, as MB/s
	opMixed                   // MixedWorkload bulk completion (ns); X is the small-message interval
	opBcast                   // broadcast makespan on a collRanks cluster (ns)
	opAllreduce               // allreduce makespan on a collRanks cluster (ns)
	opChaos                   // a chaosOps entry under each scenario: p50 and p99 series (ns)
)

// op is what a series measures.
type op struct {
	kind  opKind
	algo  mpl.Algo // opBcast, opAllreduce
	chaos string   // opChaos: a chaosOps name
}

var (
	latency   = op{kind: opLatency}
	bandwidth = op{kind: opBandwidth}
	mixed     = op{kind: opMixed}
)

func bcast(a mpl.Algo) op       { return op{kind: opBcast, algo: a} }
func allreduce(a mpl.Algo) op   { return op{kind: opAllreduce, algo: a} }
func underChaos(name string) op { return op{kind: opChaos, chaos: name} }

// collRanks is the rank count of the collective figures.
const collRanks = 8

// seriesRow is one curve: a platform and the op measured on it.
type seriesRow struct {
	name     string
	strategy string // strategy.New name, one instance per engine
	rails    []simnet.NICParams
	lanes    int // host PIO lanes; 0 keeps simnet.Opteron's
	segs     int // segments per pingpong message; 0 = 1
	sample   bool
	reliable bool
	op       op
}

// figureRow is one figure. Its X axis is either sizes (message bytes,
// or small-message intervals for opMixed) or scenarios: names from the
// faults catalogue whose faults fire at `at`, X being the index.
type figureRow struct {
	id, title, unit string
	xLabel          string
	sizes           []int
	scenarios       []string
	at              time.Duration
	// size and iters fix the chaos rows' bytes per operation and
	// iteration count; iters 0 takes Warmup+Iters from the quality.
	size, iters int
	series      []seriesRow
}

func myriRails() []simnet.NICParams { return []simnet.NICParams{simnet.Myri10G()} }
func quadRails() []simnet.NICParams { return []simnet.NICParams{simnet.QsNetII()} }
func bothRails() []simnet.NICParams { return []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()} }

// rawSeries are Figures 2 and 3: one rail, regular and multi-segment
// messages, with and without opportunistic aggregation.
func rawSeries(rails []simnet.NICParams, o op) []seriesRow {
	return []seriesRow{
		{name: "regular", strategy: "fifo", rails: rails, segs: 1, op: o},
		{name: "2-segments", strategy: "fifo", rails: rails, segs: 2, op: o},
		{name: "2-segments+aggreg", strategy: "aggreg", rails: rails, segs: 2, op: o},
		{name: "4-segments", strategy: "fifo", rails: rails, segs: 4, op: o},
		{name: "4-segments+aggreg", strategy: "aggreg", rails: rails, segs: 4, op: o},
	}
}

// refSeries are the aggregated single-rail references of Figures 4–6
// followed by the two-rail strategy under test.
func refSeries(segs int, name, strat string, o op) []seriesRow {
	pre := fmt.Sprintf("%d-", segs)
	return []seriesRow{
		{name: pre + "agg over myri", strategy: "aggreg", rails: myriRails(), segs: segs, op: o},
		{name: pre + "agg over quadrics", strategy: "aggreg", rails: quadRails(), segs: segs, op: o},
		{name: pre + name, strategy: strat, rails: bothRails(), segs: segs, op: o},
	}
}

// chaosCollSeries runs every collective of chaosOps on reliable rails.
func chaosCollSeries() []seriesRow {
	var out []seriesRow
	for _, o := range chaosOps {
		if o.Name != splitXfer {
			out = append(out, seriesRow{name: o.Name, strategy: "split", rails: bothRails(), reliable: true, op: underChaos(o.Name)})
		}
	}
	return out
}

// The axes the figures share.
const sizeAxis = "total data size (bytes)"

var chaosScenarios = []string{"baseline", "degrade-25%", "jitter-30%", "loss-20%", "rail-down"}

// figures is the table: the paper's Figures 2–7 (§3.1–3.4), then the
// extension experiments.
var figures = []figureRow{
	{id: "fig2a", title: "Raw performance over Myri-10G (latency)", unit: "us", xLabel: sizeAxis,
		sizes: LatencySizes(), series: rawSeries(myriRails(), latency)},
	{id: "fig2b", title: "Raw performance over Myri-10G (bandwidth)", unit: "MB/s", xLabel: sizeAxis,
		sizes: BandwidthSizes(), series: rawSeries(myriRails(), bandwidth)},
	{id: "fig3a", title: "Raw performance over Quadrics (latency)", unit: "us", xLabel: sizeAxis,
		sizes: LatencySizes(), series: rawSeries(quadRails(), latency)},
	{id: "fig3b", title: "Raw performance over Quadrics (bandwidth)", unit: "MB/s", xLabel: sizeAxis,
		sizes: BandwidthSizes(), series: rawSeries(quadRails(), bandwidth)},
	// Figures 4 and 5: greedy balancing against the single-rail references.
	{id: "fig4a", title: "Greedy balancing, 2-segment messages (latency)", unit: "us", xLabel: sizeAxis,
		sizes: PowersOfTwo(4, 16<<10), series: refSeries(2, "seg balanced", "balance", latency)},
	{id: "fig4b", title: "Greedy balancing, 2-segment messages (bandwidth)", unit: "MB/s", xLabel: sizeAxis,
		sizes: BandwidthSizes(), series: refSeries(2, "seg balanced", "balance", bandwidth)},
	{id: "fig5a", title: "Greedy balancing, 4-segment messages (latency)", unit: "us", xLabel: sizeAxis,
		sizes: PowersOfTwo(16, 16<<10), series: refSeries(4, "seg balanced", "balance", latency)},
	{id: "fig5b", title: "Greedy balancing, 4-segment messages (bandwidth)", unit: "MB/s", xLabel: sizeAxis,
		sizes: BandwidthSizes(), series: refSeries(4, "seg balanced", "balance", bandwidth)},
	// Figure 6: small messages aggregated onto the fastest NIC. The gap
	// to the Quadrics-only curve is the cost of polling the idle Myri NIC.
	{id: "fig6", title: "Aggregated eager messages on fastest NIC (latency)", unit: "us", xLabel: sizeAxis,
		sizes: PowersOfTwo(4, 16<<10), series: refSeries(2, "seg aggrail", "aggrail", latency)},
	// Figure 7: one large segment stripped across both rails, equal
	// halves (iso) versus sampled-bandwidth ratios (hetero).
	{id: "fig7", title: "Packet stripping with adaptive threshold (bandwidth)", unit: "MB/s", xLabel: sizeAxis,
		sizes: BandwidthSizes(), series: []seriesRow{
			{name: "one segment over myri", strategy: "fifo", rails: myriRails(), op: bandwidth},
			{name: "one segment over quadrics", strategy: "fifo", rails: quadRails(), op: bandwidth},
			{name: "iso-split over both", strategy: "split-iso", rails: bothRails(), sample: true, op: bandwidth},
			{name: "hetero-split over both", strategy: "split", rails: bothRails(), sample: true, op: bandwidth},
		}},

	// §4 future work, "parallel PIO transfers": with 2 PIO lanes the
	// small-message penalty of multi-rail shrinks and the crossover
	// moves left.
	{id: "ext-pio", title: "Parallel PIO (paper §4 future work), 2-seg balanced latency", unit: "us", xLabel: sizeAxis,
		sizes: PowersOfTwo(4, 32<<10), series: []seriesRow{
			{name: "best single rail (quadrics)", strategy: "aggreg", rails: quadRails(), segs: 2, op: latency},
			{name: "1 PIO lane(s)", strategy: "balance", rails: bothRails(), lanes: 1, segs: 2, op: latency},
			{name: "2 PIO lane(s)", strategy: "balance", rails: bothRails(), lanes: 2, segs: 2, op: latency},
		}},
	// A third rail (GigE) on a bus-limited host cannot add bandwidth:
	// the bus, not the NICs, is the bottleneck.
	{id: "ext-rails", title: "Third rail (GigE) under adaptive stripping, bandwidth", unit: "MB/s", xLabel: sizeAxis,
		sizes: BandwidthSizes(), series: []seriesRow{
			{name: "2 rails split", strategy: "split", rails: bothRails(), sample: true, op: bandwidth},
			{name: "3 rails split", strategy: "split", sample: true, op: bandwidth,
				rails: []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII(), simnet.GigE()}},
		}},
	// Small control messages competing with bulk transfers; a smaller
	// interval is more competing traffic. Y is bulk completion time.
	{id: "ext-mixed", title: "Bulk completion under competing small-message traffic", unit: "us",
		xLabel: "small-message interval (ns)", sizes: []int{1000, 2000, 4000, 8000, 16000}, series: []seriesRow{
			{name: "balance", strategy: "balance", rails: bothRails(), sample: true, op: mixed},
			{name: "aggrail", strategy: "aggrail", rails: bothRails(), sample: true, op: mixed},
			{name: "split", strategy: "split", rails: bothRails(), sample: true, op: mixed},
			{name: "split-dyn", strategy: "split-dyn", rails: bothRails(), sample: true, op: mixed},
		}},
	{id: "ext-coll", title: fmt.Sprintf("Broadcast algorithms, %d ranks (makespan)", collRanks), unit: "us",
		xLabel: "message size (bytes)", sizes: []int{1 << 10, 8 << 10, 64 << 10, 512 << 10, 2 << 20}, series: []seriesRow{
			{name: "linear", strategy: "split", rails: bothRails(), op: bcast(mpl.AlgoLinear)},
			{name: "binomial tree", strategy: "split", rails: bothRails(), op: bcast(mpl.AlgoTree)},
			{name: "chunked pipeline", strategy: "split", rails: bothRails(), op: bcast(mpl.AlgoPipeline)},
			{name: "selected (auto)", strategy: "split", rails: bothRails(), op: bcast(mpl.AlgoAuto)},
		}},
	{id: "ext-allreduce", title: fmt.Sprintf("Allreduce algorithms, %d ranks (makespan)", collRanks), unit: "us",
		xLabel: "message size (bytes)", sizes: []int{1 << 10, 16 << 10, 128 << 10, 1 << 20, 4 << 20}, series: []seriesRow{
			{name: "tree", strategy: "split", rails: bothRails(), op: allreduce(mpl.AlgoTree)},
			{name: "ring", strategy: "split", rails: bothRails(), op: allreduce(mpl.AlgoPipeline)},
			{name: "selected (auto)", strategy: "split", rails: bothRails(), op: allreduce(mpl.AlgoAuto)},
		}},
	// The eight collectives on two 2:1-oversubscribed racks of four over
	// reliable rails: the loss scenario completes by retransmission. A
	// zero point means no iteration completed.
	{id: "ext-chaos-coll", title: "Collectives under fault injection, 2x4 ranks, reliable rails (makespan)", unit: "us",
		scenarios: chaosScenarios, at: chaosAt, size: 32 << 10, series: chaosCollSeries()},
	// A 2 MiB split transfer: on rail-down, split-dyn re-splits the
	// remainder over the live rail. The raw-rail series keeps the
	// contrast reliability removes: raw rails zero out under silent loss.
	{id: "ext-chaos-split", title: "Two-rail split transfer under fault injection (makespan)", unit: "us",
		scenarios: chaosScenarios, at: chaosAt, size: 2 << 20, series: []seriesRow{
			{name: "split", strategy: "split", rails: bothRails(), reliable: true, op: underChaos(splitXfer)},
			{name: "split-dyn", strategy: "split-dyn", rails: bothRails(), reliable: true, op: underChaos(splitXfer)},
			{name: "split-raw", strategy: "split", rails: bothRails(), op: underChaos(splitXfer)},
		}},
	// 1 KiB sends, eager on both rails (hedging never duplicates
	// rendezvous transfers), hedged or not over the same
	// split-dyn-adaptive inner strategy: hedging buys nothing at the
	// median and wins at the tail.
	// The iteration count is fixed so the perf report's p99 stays
	// comparable across reports.
	{id: "ext-hedge", title: "Hedged vs unhedged small sends (1024 B, two rails, makespan)", unit: "us",
		scenarios: []string{"baseline", "jitter-30%", "degrade-25%"}, size: 1 << 10, iters: 33, series: []seriesRow{
			{name: "unhedged", strategy: "split-dyn-adaptive", rails: bothRails(), op: underChaos(splitXfer)},
			{name: "hedged", strategy: "hedge", rails: bothRails(), op: underChaos(splitXfer)},
		}},
	// A 2 MiB transfer with profile-static versus estimator-adaptive
	// split weights; the baseline row guards against adaptive losing
	// when the profiles are right.
	{id: "ext-adaptive", title: "Static vs adaptive split weights (2 MiB, two rails, makespan)", unit: "us",
		scenarios: []string{"baseline", "degrade-rail0-25%"}, size: 2 << 20, iters: 9, series: []seriesRow{
			{name: "split-dyn", strategy: "split-dyn", rails: bothRails(), op: underChaos(splitXfer)},
			{name: "split-dyn-adaptive", strategy: "split-dyn-adaptive", rails: bothRails(), op: underChaos(splitXfer)},
		}},
}

// FigureIDs lists every reproducible figure in order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	sort.Strings(ids)
	return ids
}

// Build constructs the figure with the given ID.
func Build(id string, q Quality) (*Figure, error) {
	if q.Iters < 1 {
		return nil, fmt.Errorf("bench: Quality.Iters %d < 1", q.Iters)
	}
	f := figureNamed(id)
	if f == nil {
		return nil, fmt.Errorf("bench: unknown figure %q (have %v)", id, FigureIDs())
	}
	fig := &Figure{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.unit, indexX: f.scenarios != nil}
	if f.scenarios != nil {
		fig.XLabel = "fault scenario ("
		for i, name := range f.scenarios {
			if i > 0 {
				fig.XLabel += ", "
			}
			fig.XLabel += fmt.Sprintf("%d=%s", i, name)
		}
		fig.XLabel += ")"
	}
	for _, s := range f.series {
		fig.Series = append(fig.Series, f.measure(s, q)...)
	}
	return fig, nil
}

func figureNamed(id string) *figureRow {
	for i := range figures {
		if figures[i].id == id {
			return &figures[i]
		}
	}
	return nil
}

// measure runs one series over the figure's X axis.
func (f *figureRow) measure(s seriesRow, q Quality) []Series {
	out := Series{Name: s.name}
	switch s.op.kind {
	case opLatency, opBandwidth:
		out.Points = s.pair().SweepLatency(f.sizes, s.segs, q)
		if s.op.kind == opBandwidth {
			for i, p := range out.Points {
				out.Points[i].Y = toMBps(p.X, p.Y)
			}
		}
	case opMixed:
		for _, iv := range f.sizes {
			m := &MixedWorkload{SmallEvery: des.Time(iv)}
			out.Points = append(out.Points, Point{X: iv, Y: float64(m.Run(s.pair()))})
		}
	case opBcast, opAllreduce:
		// Makespans come back in microseconds; figures store ns.
		for _, size := range f.sizes {
			us := collMakespan(s.cluster(), s.op, size, q)
			out.Points = append(out.Points, Point{X: size, Y: us * 1e3})
		}
	case opChaos:
		iters := f.iters
		if iters == 0 {
			iters = q.Warmup + q.Iters
		}
		p50 := Series{Name: s.name + " p50"}
		p99 := Series{Name: s.name + " p99"}
		for x, name := range f.scenarios {
			run := s.runChaos(scenario(name, f.at), f.size, iters)
			p50.Points = append(p50.Points, Point{X: x, Y: percentile(run.Makespans, 0.50)})
			p99.Points = append(p99.Points, Point{X: x, Y: percentile(run.Makespans, 0.99)})
		}
		return []Series{p50, p99}
	}
	return []Series{out}
}

func (s seriesRow) newStrategy() core.Strategy { return strategy.Must(s.strategy) }

// pair builds the series' two-node platform.
func (s seriesRow) pair() *Pair {
	host := simnet.Opteron()
	if s.lanes > 0 {
		host.PIOLanes = s.lanes
	}
	return NewPair(PairConfig{Host: host, NICs: s.rails, Strategy: s.newStrategy, Sample: s.sample})
}

// topology declares the platform a cluster op runs on: collRanks hosts
// in one rack for the clean collectives, two hosts for the split
// transfer, two 2:1-oversubscribed racks of four for the chaos
// collectives.
func (s seriesRow) topology(w *des.World) *topo.Topology {
	switch {
	case s.op.kind != opChaos:
		return mesh(w, s.rails, 0, collRanks)
	case s.op.chaos == splitXfer:
		return mesh(w, s.rails, 0, 2)
	default:
		return mesh(w, s.rails, 2, 4, 4)
	}
}

// cluster wires the series' strategy and rails over its topology.
func (s seriesRow) cluster() *Cluster {
	return ClusterFromTopo(s.topology(des.NewWorld()), s.config())
}

func (s seriesRow) config() ClusterConfig {
	return ClusterConfig{Strategy: s.newStrategy, Sample: s.sample, Reliable: s.reliable}
}

// runChaos runs the series' chaos op under sc.
func (s seriesRow) runChaos(sc chaosScenario, size, iters int) chaosRun {
	return runChaos(s.topology, s.config(), sc, chaosOpNamed(s.op.chaos), size, iters)
}

// mustColl preserves the clean figures' loud-failure invariant: a
// failed collective aborts the figure run instead of skewing its
// timings silently.
func mustColl(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: collective failed: %v", err))
	}
}

// collMakespan measures the mean makespan, in microseconds, of a
// size-byte broadcast from rank 0 (opBcast) or int64-sum allreduce
// (opAllreduce) on c with o's algorithm (AlgoAuto = the seeded
// selector's choice): from rank 0 leaving the fencing barrier to the
// last rank's completion.
func collMakespan(c *Cluster, o op, size int, q Quality) float64 {
	if o.kind == opAllreduce {
		size = max(size/8*8, 8)
	}
	doneAt := make([]des.Time, c.Size())
	var startAt des.Time
	var totalNS int64
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		sel := comm.Selector()
		sel.Force = o.algo
		comm.SetSelector(sel)
		buf, recv := make([]byte, size), make([]byte, size)
		for i := range buf {
			buf[i] = byte(comm.Rank() + i)
		}
		for it := 0; it < q.Warmup+q.Iters; it++ {
			mustColl(comm.Barrier())
			if comm.Rank() == 0 {
				startAt = p.Now()
			}
			if o.kind == opBcast {
				if comm.Rank() == 0 {
					for i := range buf {
						buf[i] = byte(it + i)
					}
				}
				mustColl(comm.Bcast(0, buf))
			} else {
				mustColl(comm.Allreduce(buf, recv, mpl.OpSumInt64()))
			}
			doneAt[comm.Rank()] = p.Now()
			if o.kind == opBcast && q.Verify {
				for i := range buf {
					if buf[i] != byte(it+i) {
						panic(fmt.Sprintf("bench: bcast corrupt at rank %d byte %d", comm.Rank(), i))
					}
				}
			}
			mustColl(comm.Barrier())
			if comm.Rank() == 0 && it >= q.Warmup {
				last := startAt
				for _, d := range doneAt {
					if d > last {
						last = d
					}
				}
				totalNS += int64(last - startAt)
			}
		}
	})
	c.W.Run()
	return float64(totalNS) / float64(q.Iters) / 1e3
}
