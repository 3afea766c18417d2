// Command nmbench is the repository benchmark: it runs one workload over
// the real transports (shm, tcp, udp under relnet) or the discrete-event
// simulator, checks every payload and reduction, and prints one JSON
// result line. See README.md for the workloads, the metrics and the
// layer each per-layer figure belongs to.
//
//	nmbench --workload pingpong_shm_64B --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with timing wrappers around the engine's layers and prints the
// per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"newmad/internal/core"
	"newmad/internal/shmring"
)

// opts are one run's parameters.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
}

// report is what a workload hands back: its verification counts, its
// end-to-end and per-layer figures, and free-form lines for the log.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(opts) (*report, error){
	"pingpong_shm_64B": runPingpong,
	"stream_tcp_mix":   runStream,
	"bulk_split3_256K": runBulk256K,
	"bulk_split3_4M":   runBulk,
	"des_coll_2rail":   runDES,
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fail("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
	}
	host := fingerprint()
	poolBefore := core.PoolStats().Live
	arenaBefore := shmring.ArenaStats().Live

	rep, err := run(opts{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fail("%s: %v", *workload, err)
	}

	var problems []string
	if d := settle(func() int64 { return core.PoolStats().Live }, poolBefore); d != 0 {
		problems = append(problems, fmt.Sprintf("buffer pool lease Live delta %d after the run", d))
	}
	if d := settle(func() int64 { return shmring.ArenaStats().Live }, arenaBefore); d != 0 {
		problems = append(problems, fmt.Sprintf("shm arena Live delta %d after the run", d))
	}
	if left := ownShmSegments(); len(left) > 0 {
		problems = append(problems, fmt.Sprintf("shm segments left in /dev/shm: %s", strings.Join(left, " ")))
	}
	if rep.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d messages failed verification", rep.failed, rep.attempted))
	}

	host["loadavg_after"] = loadavg()
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "nmbench: %s: FAIL: %s\n", *workload, p)
	}

	table, values := e2eMetrics, rep.e2e
	if *trace == 1 {
		table, values = layerMetrics, rep.layers
	}
	res := result{Correct: len(problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range table {
		v, ok := values[m.name]
		if !ok {
			fail("%s: metric %s not produced", *workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// settle waits briefly for a process-wide live counter to return to its
// starting value (driver goroutines release their last leases as they
// exit) and returns the remaining delta.
func settle(live func() int64, before int64) int64 {
	deadline := time.Now().Add(2 * time.Second)
	for {
		d := live() - before
		if d == 0 || time.Now().After(deadline) {
			return d
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ownShmSegments lists /dev/shm entries created by this process.
func ownShmSegments() []string {
	ents, err := os.ReadDir("/dev/shm")
	if err != nil {
		return nil
	}
	prefix := fmt.Sprintf("%s%d-", shmring.NamePrefix, os.Getpid())
	var left []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			left = append(left, e.Name())
		}
	}
	return left
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nmbench: "+format+"\n", args...)
	os.Exit(1)
}
