package bench

import (
	"context"
	"fmt"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/simnet"
)

// PairConfig describes a two-node experiment platform.
type PairConfig struct {
	// Host parameterizes both hosts; zero value gets simnet.Opteron().
	Host simnet.HostParams
	// NICs lists the rail models; one NIC of each is installed on both
	// hosts and connected back to back.
	NICs []simnet.NICParams
	// Strategy constructs the optimizing scheduler, one per engine.
	Strategy func() core.Strategy
	// AggThreshold and MinChunk override the engine defaults when > 0.
	AggThreshold int
	MinChunk     int
	// Sample, when set, runs driver-level sampling at initialization and
	// installs the measured profiles on every rail (paper §3.4).
	Sample bool
	// TraceA, when set, receives node A's engine trace events.
	TraceA func(core.TraceEvent)
}

// Pair is a two-node simulated platform with engines on both sides.
type Pair struct {
	W              *des.World
	HostA, HostB   *simnet.Host
	EngA, EngB     *core.Engine
	GateAB, GateBA *core.Gate
}

// NewPair builds the platform described by cfg: the 2-node case of the
// cluster wiring loop, with every NIC created before any is sampled.
func NewPair(cfg PairConfig) *Pair {
	if len(cfg.NICs) == 0 {
		panic("bench: PairConfig.NICs is empty")
	}
	if cfg.Host == (simnet.HostParams{}) {
		cfg.Host = simnet.Opteron()
	}
	w := des.NewWorld()
	hosts := []*simnet.Host{simnet.NewHost(w, "A", cfg.Host), simnet.NewHost(w, "B", cfg.Host)}
	nics := make([][2]*simnet.NIC, len(cfg.NICs))
	for k, np := range cfg.NICs {
		nics[k] = [2]*simnet.NIC{hosts[0].NewNIC(np), hosts[1].NewNIC(np)}
		simnet.Connect(nics[k][0], nics[k][1])
	}
	c := wire(w, hosts, len(nics), ClusterConfig{
		Strategy: cfg.Strategy, AggThreshold: cfg.AggThreshold, MinChunk: cfg.MinChunk, Sample: cfg.Sample,
	}, cfg.TraceA, func(_, _, k int) (*simnet.NIC, *simnet.NIC) {
		return nics[k][0], nics[k][1]
	})
	return &Pair{
		W: w, HostA: hosts[0], HostB: hosts[1],
		EngA: c.Engines[0], EngB: c.Engines[1],
		GateAB: c.Gates[0][1], GateBA: c.Gates[1][0],
	}
}

// WaitReqs parks the process until every request has completed,
// panicking on request errors (benchmarks must not silently lose data).
func WaitReqs(p *des.Proc, reqs ...core.Request) {
	if err := WaitReqsCtx(context.Background(), p, reqs...); err != nil {
		panic(fmt.Sprintf("bench: request failed: %v", err))
	}
}

// simDeadlineKey carries an absolute virtual-time deadline in a Context.
type simDeadlineKey struct{}

// WithSimDeadline attaches an absolute virtual-time deadline to ctx.
// WaitReqsCtx — and everything built on it, such as the *Ctx operations
// of communicators from Cluster.Comm — observes it against the simulated
// clock: a wall-clock context deadline is meaningless under the DES,
// where a nanosecond of virtual time bears no relation to real time.
func WithSimDeadline(ctx context.Context, t des.Time) context.Context {
	return context.WithValue(ctx, simDeadlineKey{}, t)
}

// WithSimTimeout attaches a virtual-time deadline d from the process's
// current virtual now.
func WithSimTimeout(ctx context.Context, p *des.Proc, d time.Duration) context.Context {
	return WithSimDeadline(ctx, p.Now()+des.FromDuration(d))
}

// SimDeadline reports the virtual-time deadline attached to ctx, if any.
func SimDeadline(ctx context.Context) (des.Time, bool) {
	t, ok := ctx.Value(simDeadlineKey{}).(des.Time)
	return t, ok
}

// WaitReqsCtx parks the process until every request completes, returning
// the first request error — or returns early with ctx's error when the
// virtual-time deadline attached via WithSimDeadline/WithSimTimeout
// expires (context.DeadlineExceeded), leaving the remaining requests
// outstanding. The deadline wake-up is a cancellable kernel timer: a
// request completing first stops it, so abandoned deadlines never
// stretch a run's virtual makespan. A ctx cancelled from outside the
// simulation is observed at wake-ups only — the DES cannot be
// interrupted mid-park from real time.
func WaitReqsCtx(ctx context.Context, p *des.Proc, reqs ...core.Request) error {
	deadline, hasDeadline := SimDeadline(ctx)
	var first error
	for _, r := range reqs {
		if err := ctx.Err(); err != nil {
			return err
		}
		sig := des.NewSignal(p.World())
		r.OnComplete(func() { sig.Broadcast() })
		var timer *des.Timer
		if hasDeadline && !r.Done() {
			if p.Now() >= deadline {
				return context.DeadlineExceeded
			}
			timer = p.World().Schedule(deadline-p.Now(), func() { sig.Broadcast() })
		}
		for !r.Done() {
			p.Wait(sig)
			if err := ctx.Err(); err != nil {
				if timer != nil {
					timer.Stop()
				}
				return err
			}
			if hasDeadline && !r.Done() && p.Now() >= deadline {
				return context.DeadlineExceeded
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if err := r.Err(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
