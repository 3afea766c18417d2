package bench

import (
	"context"
	"fmt"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/drivers/simdrv"
	"newmad/internal/mpl"
	"newmad/internal/relnet"
	"newmad/internal/sampling"
	"newmad/internal/simnet"
	"newmad/internal/simnet/topo"
)

// ClusterConfig describes an N-node simulated platform with a full mesh
// of point-to-point links (each node pair gets its own set of NICs, as
// on a switched fabric with per-peer connections).
type ClusterConfig struct {
	// Nodes is the rank count (>= 2).
	Nodes int
	// NICs lists the rail models installed per node pair.
	NICs []simnet.NICParams
	// Host parameterizes every host; zero value gets simnet.Opteron().
	Host simnet.HostParams
	// Strategy constructs the scheduler, one per engine.
	Strategy func() core.Strategy
	// AggThreshold and MinChunk override engine defaults when > 0.
	AggThreshold int
	MinChunk     int
	// Sample runs init-time sampling per rail and installs the profiles.
	Sample bool
	// Reliable wraps every rail in the relnet reliability layer
	// (sequencing, acks, retransmission): chaos-injected packet loss is
	// then recovered by retransmission in virtual time instead of
	// latching the receiving rail down. The reliability layer runs on
	// each host's clock, so retransmit timers land on the world's
	// cancellable timer API.
	Reliable bool
	// Rel tunes the reliability layer when Reliable is set; zero values
	// derive from each rail's NIC profile, and Clock is always the
	// rail's host.
	Rel relnet.Config
	// Adaptive, when > 0, enables online selector re-fitting on every
	// communicator: every Adaptive collective operations the selector
	// thresholds are re-derived from the rails' online estimators at a
	// deterministic epoch (see mpl.Comm.SetAdaptive).
	Adaptive uint32
}

// Cluster is an N-node simulated platform, fully connected.
type Cluster struct {
	W       *des.World
	Hosts   []*simnet.Host
	Engines []*core.Engine
	// Gates[i][j] is node i's gate to node j (nil on the diagonal).
	Gates [][]*core.Gate
	// NICs[i][j] lists node i's NICs toward node j, one per rail class
	// (nil on the diagonal) — retained so the chaos layer can target the
	// links of a running cluster.
	NICs [][][]*simnet.NIC
	// Adaptive is the re-fit period distributed to every communicator
	// (from ClusterConfig.Adaptive; 0 disables).
	Adaptive uint32
	// Selector is the collective algorithm selector installed on every
	// communicator. Algorithm selection must agree on every rank (the
	// schedules of different algorithms do not interoperate), so the
	// cluster seeds one selector — from the rank-0 rail profiles — and
	// distributes it, rather than letting each rank seed from its own
	// sampled figures.
	Selector mpl.Selector
	// Rels holds every reliability-layer driver when the cluster was
	// built with ClusterConfig.Reliable, for protocol-counter drilling.
	Rels []*relnet.Driver
}

// RelStats sums the protocol counters over every reliable rail (zero
// when the cluster runs raw rails).
func (c *Cluster) RelStats() relnet.Stats {
	var sum relnet.Stats
	for _, d := range c.Rels {
		st := d.Stats()
		sum.SegsSent += st.SegsSent
		sum.SegsRecv += st.SegsRecv
		sum.Retransmits += st.Retransmits
		sum.FastRetransmits += st.FastRetransmits
		sum.Timeouts += st.Timeouts
		sum.DupsDropped += st.DupsDropped
		sum.AcksSent += st.AcksSent
		sum.AcksPiggybacked += st.AcksPiggybacked
		sum.Garbage += st.Garbage
	}
	return sum
}

// Retransmits reports the total retransmission count across all
// reliable rails: the measured price of surviving a lossy fabric.
func (c *Cluster) Retransmits() uint64 { return c.RelStats().Retransmits }

// newRailDriver builds one rail driver over a NIC per the cluster
// config, retaining reliable drivers for stats drilling.
func (c *Cluster) newRailDriver(cfg *ClusterConfig, n *simnet.NIC) core.Driver {
	if !cfg.Reliable {
		return simdrv.New(n)
	}
	d := simdrv.NewReliable(n, cfg.Rel)
	c.Rels = append(c.Rels, d)
	return d
}

// NewCluster builds the platform described by cfg.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes < 2 {
		panic("bench: ClusterConfig.Nodes must be >= 2")
	}
	if len(cfg.NICs) == 0 {
		panic("bench: ClusterConfig.NICs is empty")
	}
	if cfg.Host == (simnet.HostParams{}) {
		cfg.Host = simnet.Opteron()
	}
	w := des.NewWorld()
	hosts := make([]*simnet.Host, cfg.Nodes)
	for i := range hosts {
		hosts[i] = simnet.NewHost(w, fmt.Sprintf("n%d", i), cfg.Host)
	}
	c := wire(w, hosts, len(cfg.NICs), cfg, nil, func(i, j, k int) (*simnet.NIC, *simnet.NIC) {
		// Created pair by pair, not up front: each pair samples against
		// only the NICs its hosts already have, which the profiles pin.
		a, b := hosts[i].NewNIC(cfg.NICs[k]), hosts[j].NewNIC(cfg.NICs[k])
		simnet.Connect(a, b)
		return a, b
	})
	c.seedSelector()
	return c
}

// ClusterFromTopo wires engines, gates and rails over an already-built
// topology: one engine per host, one gate per host pair, one rail per
// link class. cfg.Nodes, cfg.NICs and cfg.Host are ignored — the
// topology fixes them. The returned cluster shares the topology's world
// and NIC mesh, so chaos schedules built against the topology perturb
// the running cluster.
func ClusterFromTopo(top *topo.Topology, cfg ClusterConfig) *Cluster {
	c := wire(top.W, top.Hosts, top.Classes(), cfg, nil, top.LinkNICs)
	c.seedSelector()
	return c
}

// wire is the one wiring loop behind NewPair, NewCluster and
// ClusterFromTopo: one engine per host (trace, when set, receives host
// 0's engine events), then for every host pair i < j in order a gate
// each way named after the peer host, and per link class k the NICs
// link(i, j, k) returns, sampled (cfg.Sample) and added as rails.
// Sampling charges the poll cost of every NIC already on the host, so
// NewCluster's link creates a pair's NICs only when the loop reaches it.
func wire(w *des.World, hosts []*simnet.Host, classes int, cfg ClusterConfig,
	trace func(core.TraceEvent), link func(i, j, k int) (*simnet.NIC, *simnet.NIC)) *Cluster {
	if cfg.Strategy == nil {
		panic("bench: a Strategy is required")
	}
	n := len(hosts)
	c := &Cluster{W: w, Hosts: hosts, Adaptive: cfg.Adaptive}
	for i, h := range hosts {
		ec := core.Config{
			Strategy: cfg.Strategy(), Clock: h,
			AggThreshold: cfg.AggThreshold, MinChunk: cfg.MinChunk,
		}
		if i == 0 {
			ec.Trace = trace
		}
		c.Engines = append(c.Engines, core.New(ec))
		c.Gates = append(c.Gates, make([]*core.Gate, n))
		c.NICs = append(c.NICs, make([][]*simnet.NIC, n))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi := c.Engines[i].NewGate(hosts[j].Name)
			gj := c.Engines[j].NewGate(hosts[i].Name)
			for k := 0; k < classes; k++ {
				ni, nj := link(i, j, k)
				var prof core.Profile
				if cfg.Sample {
					prof = sampling.SampleNICPair(w, ni, nj, nil)
				}
				ri := gi.AddRail(c.newRailDriver(&cfg, ni))
				rj := gj.AddRail(c.newRailDriver(&cfg, nj))
				if cfg.Sample {
					ri.SetProfile(prof)
					rj.SetProfile(prof)
				}
				c.NICs[i][j] = append(c.NICs[i][j], ni)
				c.NICs[j][i] = append(c.NICs[j][i], nj)
			}
			c.Gates[i][j] = gi
			c.Gates[j][i] = gj
		}
	}
	return c
}

// seedSelector seeds the cluster-wide collective selector from the
// rank-0 rail profiles (see the Selector field comment).
func (c *Cluster) seedSelector() {
	var profs []core.Profile
	for _, r := range c.Gates[0][1].Rails() {
		profs = append(profs, r.Profile())
	}
	c.Selector = mpl.SelectorFromProfiles(profs)
}

// Size returns the rank count.
func (c *Cluster) Size() int { return len(c.Engines) }

// Comm builds an mpl communicator for the given rank, with blocking
// waits bound to simulated process p: they park in virtual time and
// honor virtual-time deadlines attached with WithSimDeadline.
func (c *Cluster) Comm(rank int, p *des.Proc) *mpl.Comm {
	comm, err := mpl.New(c.Engines[rank], rank, c.Gates[rank], func(ctx context.Context, reqs ...core.Request) error {
		return WaitReqsCtx(ctx, p, reqs...)
	})
	if err != nil {
		panic("bench: " + err.Error())
	}
	// Install the cluster-wide seeded selector: every rank must make
	// the same algorithm choices.
	comm.SetSelector(c.Selector)
	if c.Adaptive > 0 {
		comm.SetAdaptive(c.Adaptive)
	}
	return comm
}

// SpawnRanks starts one simulated process per rank running body and
// returns once all are spawned; call c.W.Run() to execute.
func (c *Cluster) SpawnRanks(body func(p *des.Proc, comm *mpl.Comm)) {
	for rank := 0; rank < c.Size(); rank++ {
		rank := rank
		c.W.Spawn(fmt.Sprintf("rank%d", rank), func(p *des.Proc) {
			body(p, c.Comm(rank, p))
		})
	}
}
