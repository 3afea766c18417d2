// Package newmad is a Go reproduction of the NewMadeleine communication
// library's multi-rail engine (Aumage, Brunet, Mercier, Namyst — "High-
// Performance Multi-Rail Support with the NewMadeleine Communication
// Library", HCW/IPDPS 2007).
//
// The engine collects application segments, accumulates them in a
// backlog while NICs are busy, and consults a pluggable optimization
// strategy each time a rail goes idle. Strategies aggregate small
// segments, balance segments across heterogeneous rails, and strip large
// messages into bandwidth-proportional chunks.
//
// Progress is sharded per gate: every gate (peer connection) is an
// independent progress domain with its own lock, so traffic to different
// peers proceeds in parallel — the engine itself keeps only a small
// registry. Completion is event-driven: requests expose a completion
// channel and Engine.Wait blocks on it, woken directly by the completing
// driver event. Every driver, TCP included, reports its events as they
// happen, so nothing is ever polled.
//
// A minimal exchange over two simulated rails:
//
//	pair := newmad.NewSimPair(newmad.SimPairConfig{
//		NICs:     []newmad.NICParams{newmad.Myri10G(), newmad.QsNetII()},
//		Strategy: newmad.StrategySplit,
//	})
//	... see examples/quickstart
//
// Real deployments replace the simulated rails with TCP rails (DialTCP /
// AcceptTCP, or negotiated multi-rail sessions via ListenSession /
// ConnectSession) and wait with Engine.Wait, which parks until the
// rails' I/O goroutines complete the request.
package newmad

import (
	"context"
	"net"
	"time"

	"newmad/internal/bench"
	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/mpl"
	"newmad/internal/sampling"
	"newmad/internal/session"
	"newmad/internal/shmring"
	"newmad/internal/simnet"
	"newmad/internal/simnet/chaos"
	"newmad/internal/simnet/topo"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// Core engine types.
type (
	// Engine is one node's communication library instance.
	Engine = core.Engine
	// Config parameterizes an Engine.
	Config = core.Config
	// Gate is a connection to one peer with its rails and backlog.
	Gate = core.Gate
	// Rail is one network path of a gate.
	Rail = core.Rail
	// Packer builds a message segment by segment.
	Packer = core.Packer
	// SendReq tracks an outgoing message.
	SendReq = core.SendReq
	// RecvReq tracks an incoming message.
	RecvReq = core.RecvReq
	// Request is the common request interface.
	Request = core.Request
	// Strategy is a pluggable optimizing scheduler.
	Strategy = core.Strategy
	// Backlog is the per-gate pending-work pool strategies rewrite.
	Backlog = core.Backlog
	// Unit is one schedulable segment or rendezvous body.
	Unit = core.Unit
	// Driver is the transmit-layer interface.
	Driver = core.Driver
	// Profile describes a rail's performance characteristics.
	Profile = core.Profile
	// Packet is one transmit-layer unit.
	Packet = core.Packet
	// Header is the logical packet header.
	Header = core.Header
	// Clock abstracts time and CPU cost accounting.
	Clock = core.Clock
	// TraceEvent is one engine diagnostic event.
	TraceEvent = core.TraceEvent
)

// New creates an engine.
func New(cfg Config) *Engine { return core.New(cfg) }

// Request lifecycle errors.
var (
	// ErrCanceled reports a request abandoned by Request.Cancel with no
	// more specific cause.
	ErrCanceled = core.ErrCanceled
	// ErrMsgAborted reports a receive whose sender abandoned the message
	// (a cancelled send, or a rail failure with delivery unknown).
	ErrMsgAborted = core.ErrMsgAborted
	// ErrRailDown reports a send attempted on a failed rail.
	ErrRailDown = core.ErrRailDown
	// ErrPeerRecvGone reports a send abandoned because the peer
	// cancelled the matching receive mid-rendezvous.
	ErrPeerRecvGone = core.ErrPeerRecvGone
)

// Strategies, in the order the paper develops them. Each is one row of
// the strategy package's feature table, looked up by its registry name.

// StrategyFIFO returns the baseline strategy: one packet per segment on
// rail 0.
func StrategyFIFO() Strategy { return strategy.Must("fifo") }

// StrategyAggreg returns opportunistic aggregation on rail 0.
func StrategyAggreg() Strategy { return strategy.Must("aggreg") }

// StrategyBalance returns greedy multi-rail balancing (paper §3.2).
func StrategyBalance() Strategy { return strategy.Must("balance") }

// StrategyAggRail returns aggregation onto the fastest rail plus greedy
// balancing of large segments (paper §3.3).
func StrategyAggRail() Strategy { return strategy.Must("aggrail") }

// StrategySplit returns the paper's final strategy (§3.4): aggregation on
// the fastest rail plus adaptive bandwidth-ratio stripping of large
// messages.
func StrategySplit() Strategy { return strategy.Must("split") }

// StrategySplitIso returns the equal-shares stripping variant used as the
// Figure 7 comparison point.
func StrategySplitIso() Strategy { return strategy.Must("split-iso") }

// StrategyByName builds a strategy from its registry name ("fifo",
// "aggreg", "balance", "aggrail", "split", "split-iso", "split-dyn",
// "split-dyn-adaptive", "hedge").
func StrategyByName(name string) (Strategy, error) { return strategy.New(name) }

// Simulated platform (the paper's testbed substitute).
type (
	// NICParams describes a simulated NIC model.
	NICParams = simnet.NICParams
	// SimPair is a two-node simulated platform with engines on both
	// sides.
	SimPair = bench.Pair
	// SimPairConfig configures a SimPair.
	SimPairConfig = bench.PairConfig
	// World is the discrete-event simulation kernel.
	World = des.World
	// Proc is a simulated process.
	Proc = des.Proc
	// SimTime is a virtual-time instant (World.Now, Proc.Now); its
	// Duration method converts to wall units.
	SimTime = des.Time
)

// Myri10G returns the paper's Myri-10G/MX NIC model (~2.8 us, ~1200 MB/s).
func Myri10G() NICParams { return simnet.Myri10G() }

// QsNetII returns the paper's Quadrics QM500/Elan NIC model (~1.7 us,
// ~850 MB/s).
func QsNetII() NICParams { return simnet.QsNetII() }

// GigE returns a commodity gigabit NIC model for extension experiments.
func GigE() NICParams { return simnet.GigE() }

// NewSimPair builds a two-node simulated platform.
func NewSimPair(cfg SimPairConfig) *SimPair { return bench.NewPair(cfg) }

// SimCluster is an N-node fully connected simulated platform.
type SimCluster = bench.Cluster

// SimClusterConfig configures a SimCluster.
type SimClusterConfig = bench.ClusterConfig

// NewSimCluster builds an N-node simulated platform with an mpl
// communicator per rank (Cluster.Comm / Cluster.SpawnRanks).
func NewSimCluster(cfg SimClusterConfig) *SimCluster { return bench.NewCluster(cfg) }

// Declarative topology and chaos (internal/simnet/topo, …/chaos): racks
// of hosts wired into a full NIC mesh per rail class, and fault
// schedules armed on cancellable DES timers against the built links.
type (
	// TopoBuilder accumulates a declarative platform description:
	// NewTopo().Rack(4).Rack(4).Link(Myri10G()).Oversubscribe(4).Build(w).
	TopoBuilder = topo.Builder
	// Topology is a built platform: hosts, racks and the NIC mesh.
	Topology = topo.Topology
	// ChaosSchedule is a named list of faults (link flaps, bandwidth
	// degradation, loss, jitter, rack partitions) with virtual-time
	// offsets, inert until armed into a world.
	ChaosSchedule = chaos.Schedule
	// ChaosFault is one scheduled perturbation of a ChaosSchedule.
	ChaosFault = chaos.Fault
	// ChaosArmed is a schedule wired into a world; Stop cancels every
	// fault that has not fired yet.
	ChaosArmed = chaos.Armed
)

// NewWorld returns an empty discrete-event world for a simulated
// platform (topologies are built into a world; see NewTopo).
func NewWorld() *World { return des.NewWorld() }

// NewTopo returns an empty topology builder.
func NewTopo() *TopoBuilder { return topo.New() }

// NewChaosSchedule returns an empty fault schedule.
func NewChaosSchedule(name string) *ChaosSchedule { return chaos.NewSchedule(name) }

// NewSimClusterFromTopo wires engines, gates and rails over a built
// topology (cfg.Nodes, cfg.NICs and cfg.Host are ignored — the topology
// fixes them), sharing its world and NIC mesh so chaos schedules built
// against the topology perturb the running cluster.
func NewSimClusterFromTopo(top *Topology, cfg SimClusterConfig) *SimCluster {
	return bench.ClusterFromTopo(top, cfg)
}

// Comm is a ranked communicator over the engine (internal/mpl): blocking
// point-to-point operations plus the collectives subsystem — Barrier,
// Bcast, Gather, Scatter, Reduce, Allreduce, Allgather, Alltoall and
// their nonblocking I* variants returning a Coll handle.
type Comm = mpl.Comm

// Coll is an in-flight nonblocking collective: a Request with Wait/Test
// conveniences. Several may be outstanding at once, each driving its
// gates through their own progress domains.
type Coll = mpl.Coll

// CollAlgo names a collective algorithm family.
type CollAlgo = mpl.Algo

// Collective algorithm families for CollSelector.Force and ParseCollAlgo.
const (
	CollAuto     = mpl.AlgoAuto
	CollLinear   = mpl.AlgoLinear
	CollTree     = mpl.AlgoTree
	CollPipeline = mpl.AlgoPipeline
)

// CollSelector picks the collective algorithm per message size and rank
// count: linear fan-out while latency-bound, then binomial tree or
// pipeline by the rails' α-β model.
type CollSelector = mpl.Selector

// ReduceOp is an elementwise reduction operator for Reduce/Allreduce.
type ReduceOp = mpl.Op

// OpSumInt64 sums little-endian int64 elements.
func OpSumInt64() ReduceOp { return mpl.OpSumInt64() }

// ParseCollAlgo parses "auto", "linear", "tree" or "pipeline".
func ParseCollAlgo(s string) (CollAlgo, error) { return mpl.ParseAlgo(s) }

// WaitSim parks a simulated process until the requests complete.
func WaitSim(p *Proc, reqs ...Request) { bench.WaitReqs(p, reqs...) }

// WaitSimCtx parks a simulated process until the requests complete or
// the virtual-time deadline attached with WithSimTimeout expires —
// deadlines are read against the simulated clock, not the wall clock.
func WaitSimCtx(ctx context.Context, p *Proc, reqs ...Request) error {
	return bench.WaitReqsCtx(ctx, p, reqs...)
}

// WithSimTimeout attaches a virtual-time deadline d from the process's
// current virtual now.
func WithSimTimeout(ctx context.Context, p *Proc, d time.Duration) context.Context {
	return bench.WithSimTimeout(ctx, p, d)
}

// Sessions: negotiated multi-rail bring-up between two processes.

// RailSpec declares one rail a session server offers: a TCP stream by
// default, with Proto "udp" a datagram rail under the relnet
// reliability layer, or with Proto "shm" a same-host shared-memory
// rail. One session may mix all three.
type RailSpec = session.RailSpec

// SessionServer accepts negotiated multi-rail sessions.
type SessionServer = session.Server

// SessionOptions parameterizes session establishment. Its one field,
// HandshakeTimeout, bounds the negotiation with one peer (zero = 30 s).
type SessionOptions = session.Options

// ListenSession starts a session server: a control listener, and
// nothing per rail until a session arrives — each Accept offers a fresh
// listener per tcp rail, data socket per udp rail and segment per shm
// rail, on the interface each RailSpec.Addr names (port 0). Accept(ctx)
// returns a ready multi-rail gate; waiting for a client is bounded by
// ctx, the negotiation by opts.HandshakeTimeout.
func ListenSession(ctx context.Context, eng *Engine, name, ctrlAddr string, rails []RailSpec, opts SessionOptions) (*SessionServer, error) {
	return session.Listen(ctx, eng, name, ctrlAddr, rails, opts)
}

// ConnectSession dials a session server and brings up every offered
// rail, returning the gate and the server's name. The negotiation is
// bounded by opts.HandshakeTimeout and ctx, whichever is tighter.
func ConnectSession(ctx context.Context, eng *Engine, name, ctrlAddr string, opts SessionOptions) (*Gate, string, error) {
	return session.Connect(ctx, eng, name, ctrlAddr, opts)
}

// TCP rails (real sockets).

// TCPOptions configures a TCP rail.
type TCPOptions = tcpdrv.Options

// DialTCP connects a TCP rail to addr.
func DialTCP(addr string, opts TCPOptions) (Driver, error) { return tcpdrv.Dial(addr, opts) }

// AcceptTCP accepts one TCP rail on l.
func AcceptTCP(l net.Listener, opts TCPOptions) (Driver, error) { return tcpdrv.Accept(l, opts) }

// Shared-memory rails (same-host peers; Linux /dev/shm).

// ShmOptions configures a shared-memory rail: its profile and the
// liveness knobs. Frames up to 4 KiB copy through the ring; larger ones
// take a region of the 16 MiB rendezvous arena, which holds one frame
// of the largest payload the engine posts (core.MaxPayload, 8 MiB).
type ShmOptions = shmdrv.Options

// ShmDriver is one side of a shared-memory rail.
type ShmDriver = shmdrv.Driver

// ShmSupported reports whether this host can carry shared-memory rails
// (Linux with a usable /dev/shm). On other platforms the constructors
// fail and session rails with Proto "shm" are rejected at Listen.
func ShmSupported() bool { return shmdrv.Supported() }

// NewShm attaches to the named segment if a peer already created it,
// else creates it — the symmetric constructor for two same-host
// processes that agreed on a name out of band. Most callers want
// session rails with Proto "shm" instead, which negotiate a fresh
// anonymous segment per session.
func NewShm(name string, opts ShmOptions) (*ShmDriver, error) { return shmdrv.New(name, opts) }

// NewShmPair builds both sides of a shared-memory rail in one process —
// two independent mappings of one anonymous segment — for tests,
// benchmarks and demos.
func NewShmPair(opts ShmOptions) (*ShmDriver, *ShmDriver, error) { return shmdrv.Pair(opts) }

// ShmSegmentName returns a fresh single-use segment name for NewShm:
// unique per process and call, and carrying the prefix the orphan
// reaper scans for, so a crashed process's segments are reclaimable.
func ShmSegmentName() string { return shmring.RandomName() }

// ReapShmOrphans removes segments left in /dev/shm by crashed
// processes (creator pid no longer alive) and reports how many it
// unlinked. Live segments are never touched.
func ReapShmOrphans() int { return shmring.ReapOrphans() }

// Tracing.

// TraceCollector accumulates engine trace events for diagnostics.
type TraceCollector = trace.Collector

// NewTraceCollector returns a collector keeping at most max events
// (0 = unbounded); install its Hook as Config.Trace.
func NewTraceCollector(max int) *TraceCollector { return trace.New(max) }

// Sampling.

// SampleRatios derives stripping ratios from per-rail bandwidths.
func SampleRatios(bandwidths []float64) []float64 { return sampling.Ratios(bandwidths) }

// SaveProfiles persists sampled rail profiles as JSON.
func SaveProfiles(path string, profiles []Profile) error { return sampling.Save(path, profiles) }

// LoadProfiles reads rail profiles persisted by SaveProfiles.
func LoadProfiles(path string) ([]Profile, error) { return sampling.Load(path) }
