package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"newmad/internal/core"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.csv from the current figures")

// TestFiguresGolden pins every figure, value for value, at Fast quality:
// the DES is deterministic, so any change to a strategy, driver or model
// that moves a simulated number shows up here as a CSV diff. Regenerate
// with `go test ./internal/bench -run TestFiguresGolden -update` only
// when a figure is meant to change.
func TestFiguresGolden(t *testing.T) {
	for _, id := range FigureIDs() {
		fig, err := Build(id, Fast())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got bytes.Buffer
		fig.WriteCSV(&got)
		checkGolden(t, id+".csv", got.Bytes())
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestSampledClusterProfilesGolden pins the sampled rail profiles of the
// 8-rank Myri-10G + Quadrics mesh that the nmbench des_coll_2rail
// workload runs on. Sampling charges the poll cost of every NIC already
// installed on a host, so the order in which NewCluster creates NICs and
// samples pairs shows up here even when no figure moves.
func TestSampledClusterProfilesGolden(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Nodes:    8,
		NICs:     []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()},
		Strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
		Sample:   true,
	})
	var got bytes.Buffer
	for i := range c.Gates {
		for j, g := range c.Gates[i] {
			if g == nil {
				continue
			}
			for k, r := range g.Rails() {
				p := r.Profile()
				fmt.Fprintf(&got, "n%d->n%d rail%d %s latency_ns=%d bandwidth_Bps=%.3f\n",
					i, j, k, p.Name, p.Latency.Nanoseconds(), p.Bandwidth)
			}
		}
	}
	checkGolden(t, "sampled-cluster-profiles.txt", got.Bytes())
}

// TestPerfReportGolden pins the deterministic (virtual-time) families of
// the perf report at Fast quality, value for value.
func TestPerfReportGolden(t *testing.T) {
	r := BuildPerfReport(Fast())
	des := struct {
		PingpongLatency   []LatencyPoint       `json:"pingpong_latency"`
		AllreduceMakespan []MakespanPoint      `json:"allreduce_makespan"`
		LossRecovery      []LossRecoveryPoint  `json:"loss_recovery"`
		TailLatency       []TailLatencyPoint   `json:"tail_latency"`
		AdaptiveSplit     []AdaptiveSplitPoint `json:"adaptive_split"`
	}{r.PingpongLatency, r.AllreduceMakespan, r.LossRecovery, r.TailLatency, r.AdaptiveSplit}
	got, err := json.MarshalIndent(des, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "perf-des.json", append(got, '\n'))
}
