// Package topo is a declarative topology builder for the simulated
// platform: racks of hosts, per-pair rail classes with bandwidth,
// latency, jitter and loss, and inter-rack oversubscription, wired into
// a connected NIC mesh in one fluent chain. It replaces the hand-rolled
// pair/star setups scattered through benchmarks and tests:
//
//	top := topo.New().
//		Rack(4).
//		Rack(4).
//		Link(simnet.Myri10G()).
//		Link(simnet.QsNetII()).Jitter(0.05).Drop(0.001).
//		Oversubscribe(4).
//		Build(w)
//
// builds two racks of four hosts, a full mesh of two-rail connections,
// 4:1 oversubscribed across the rack boundary. The resulting Topology
// exposes the NIC matrix for engine wiring (bench.ClusterFromTopo) and
// for the chaos layer's fault injection (rack partitions, link flaps).
package topo

import (
	"fmt"
	"time"

	"newmad/internal/des"
	"newmad/internal/simnet"
)

// linkClass is one rail model applied to every host pair, with the
// chaos-relevant extras that are not part of the static NIC model.
type linkClass struct {
	params simnet.NICParams
	drop   float64 // per-packet arrival loss probability on both ends
}

// Builder accumulates a declarative topology description. Methods
// return the builder for chaining; Build validates and wires the mesh.
type Builder struct {
	hostModel simnet.HostParams
	racks     []int
	links     []linkClass
	oversub   float64
}

// New returns an empty builder: no racks, no links, Opteron hosts, no
// oversubscription.
func New() *Builder {
	return &Builder{hostModel: simnet.Opteron(), oversub: 1}
}

// Rack appends a rack of n hosts.
func (b *Builder) Rack(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("topo: rack of %d hosts", n))
	}
	b.racks = append(b.racks, n)
	return b
}

// Link appends a rail class: every host pair gets one NIC pair of this
// model. Chained modifiers (Bandwidth, Latency, Jitter, Drop) adjust
// the class just added.
func (b *Builder) Link(p simnet.NICParams) *Builder {
	b.links = append(b.links, linkClass{params: p})
	return b
}

// last returns the link class being modified, panicking when no Link
// call precedes the modifier.
func (b *Builder) last() *linkClass {
	if len(b.links) == 0 {
		panic("topo: link modifier before any Link call")
	}
	return &b.links[len(b.links)-1]
}

// Bandwidth overrides the last link class's rate in bytes per second.
func (b *Builder) Bandwidth(bw float64) *Builder {
	b.last().params.Bandwidth = bw
	return b
}

// Latency overrides the last link class's one-way wire latency.
func (b *Builder) Latency(d time.Duration) *Builder {
	b.last().params.WireLatency = d
	return b
}

// Jitter sets the last link class's per-packet host-cost noise factor.
func (b *Builder) Jitter(j float64) *Builder {
	b.last().params.Jitter = j
	return b
}

// Drop sets the last link class's per-packet arrival loss probability,
// applied to both endpoint NICs of every pair.
func (b *Builder) Drop(p float64) *Builder {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("topo: drop probability %v outside [0, 1]", p))
	}
	b.last().drop = p
	return b
}

// Oversubscribe divides the bandwidth of every inter-rack link by
// ratio, modelling an oversubscribed uplink (4 = a 4:1 fabric). Ratio 1
// (the default) keeps the fabric non-blocking.
func (b *Builder) Oversubscribe(ratio float64) *Builder {
	if ratio < 1 {
		panic(fmt.Sprintf("topo: oversubscription ratio %v < 1", ratio))
	}
	b.oversub = ratio
	return b
}

// Build validates the description and wires it into world w: hosts are
// created rack-major ("r0h0", "r0h1", …), and every host pair gets one
// connected NIC pair per link class, inter-rack pairs at the
// oversubscribed rate.
func (b *Builder) Build(w *des.World) *Topology {
	total := 0
	for _, n := range b.racks {
		total += n
	}
	if total < 2 {
		panic("topo: need at least 2 hosts (did you forget Rack?)")
	}
	if len(b.links) == 0 {
		panic("topo: need at least one Link class")
	}
	for _, lc := range b.links {
		if err := lc.params.Validate(); err != nil {
			panic("topo: " + err.Error())
		}
	}
	t := &Topology{
		W:       w,
		racks:   make([][]int, len(b.racks)),
		classes: len(b.links),
	}
	for r, n := range b.racks {
		for h := 0; h < n; h++ {
			idx := len(t.Hosts)
			t.Hosts = append(t.Hosts, simnet.NewHost(w, fmt.Sprintf("r%dh%d", r, h), b.hostModel))
			t.rackOf = append(t.rackOf, r)
			t.racks[r] = append(t.racks[r], idx)
		}
	}
	t.nics = make([][][]*simnet.NIC, total)
	for i := range t.nics {
		t.nics[i] = make([][]*simnet.NIC, total)
	}
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			for _, lc := range b.links {
				p := lc.params
				if t.rackOf[i] != t.rackOf[j] && b.oversub > 1 {
					p.Bandwidth /= b.oversub
					if p.Bandwidth < simnet.MinBandwidth {
						p.Bandwidth = simnet.MinBandwidth
					}
				}
				ni := t.Hosts[i].NewNIC(p)
				nj := t.Hosts[j].NewNIC(p)
				simnet.Connect(ni, nj)
				if lc.drop > 0 {
					ni.SetDropProb(lc.drop)
					nj.SetDropProb(lc.drop)
				}
				t.nics[i][j] = append(t.nics[i][j], ni)
				t.nics[j][i] = append(t.nics[j][i], nj)
			}
		}
	}
	return t
}

// Topology is a built platform: hosts grouped into racks and the
// connected NIC mesh between them.
type Topology struct {
	W     *des.World
	Hosts []*simnet.Host

	rackOf  []int
	racks   [][]int
	classes int
	// nics[i][j] lists host i's NICs toward host j, one per link class;
	// nil on the diagonal.
	nics [][][]*simnet.NIC
}

// Size returns the host count.
func (t *Topology) Size() int { return len(t.Hosts) }

// NumRacks returns the rack count.
func (t *Topology) NumRacks() int { return len(t.racks) }

// Rack returns the host indices in rack r.
func (t *Topology) Rack(r int) []int { return t.racks[r] }

// RackOf returns the rack index of host i.
func (t *Topology) RackOf(i int) int { return t.rackOf[i] }

// Classes returns the number of rail classes per host pair.
func (t *Topology) Classes() int { return t.classes }

// NICs returns host i's NICs toward host j, one per link class (nil
// when i == j).
func (t *Topology) NICs(i, j int) []*simnet.NIC { return t.nics[i][j] }

// InterRack reports whether hosts i and j sit in different racks.
func (t *Topology) InterRack(i, j int) bool { return t.rackOf[i] != t.rackOf[j] }

// LinkNICs returns both endpoint NICs of the class-k link between hosts
// i and j — the unit the chaos layer flaps: a link fault must down BOTH
// ends, or packets already credited to the sender vanish silently.
func (t *Topology) LinkNICs(i, j, k int) (*simnet.NIC, *simnet.NIC) {
	return t.nics[i][j][k], t.nics[j][i][k]
}

// CutNICs returns every NIC (both endpoints, all classes) on links
// crossing between racks ra and rb: downing them all partitions the two
// racks while intra-rack traffic keeps flowing.
func (t *Topology) CutNICs(ra, rb int) []*simnet.NIC {
	var cut []*simnet.NIC
	for _, i := range t.racks[ra] {
		for _, j := range t.racks[rb] {
			cut = append(cut, t.nics[i][j]...)
			cut = append(cut, t.nics[j][i]...)
		}
	}
	return cut
}
