// Command etbench is the end-to-end and per-layer benchmark of the etherm
// service. It embeds internal/server on a loopback listener with a durable
// data directory, drives it only through the public client SDK and HTTP
// surface, and runs exactly one workload per process:
//
//	table2-nominal  deterministic Table 2 jobs, 2 clients on 1 runner slot
//	fig7-campaign   streaming Fig. 7 Monte Carlo campaigns, 1 client
//	rare-subset     failure_probability subset-simulation jobs, 1 client
//	surrogate-read  surrogate queries, 1 client, nothing else running
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash etbench/run.sh --workload fig7-campaign --seed 7 --seconds 20 --trace 0
//
// The workload's inputs are generated from --seed; the server sees only the
// generated job specs and queries. With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 it runs the same inputs and reports the
// per-layer metrics instead. Every metric is printed by name with its unit,
// the result checks count as operations, and the last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md in this directory records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"evals_per_s":     "1/s",
	"cpu_per_eval_ms": "ms",
	"rss_p90_mb":      "MB",
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same jobs and queries")
		seconds = flag.Int("seconds", 20, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		root    = flag.String("root", ".", "checkout root; scratch state goes under ROOT/.bench_build")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *root); err != nil {
		fmt.Fprintf(os.Stderr, "etbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, root string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	// One busy thread per core: no workload runs more busy goroutines or
	// connections than there are cores.
	runtime.GOMAXPROCS(runtime.NumCPU())

	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	// Workloads never overlap in time: a second etbench process in the same
	// checkout fails here instead of sharing the cores with this one.
	lock, err := os.OpenFile(filepath.Join(scratch, "etbench.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer lock.Close()
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("another etbench workload is running in this checkout (%v); workloads must not overlap", err)
	}
	dataRoot, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataRoot)

	st := stampNow(name, seed, trace == 1)
	fmt.Println(st)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	b := &bench{
		wl: wl, seed: seed, window: time.Duration(seconds) * time.Second,
		traced: trace == 1, dataRoot: dataRoot, metrics: map[string]metric{},
	}
	defer b.close()
	if err := b.execute(ctx); err != nil {
		return err
	}
	fmt.Printf("finished %s (workload %s ran alone from %s)\n",
		time.Now().UTC().Format(time.RFC3339Nano), name, st.Start.Format(time.RFC3339Nano))
	return emit(b)
}

// emit prints every metric on its own line, then the JSON report.
func emit(b *bench) error {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range b.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Printf("check  %-40s %s\n", c.name, status)
	}
	want := len(endToEnd)
	if b.traced {
		want = len(perLayer)
	}
	if len(b.metrics) != want {
		return fmt.Errorf("run reported %d metrics, want %d", len(b.metrics), want)
	}
	rep := report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stamp identifies the machine and inputs of a run, so results from
// different CPUs or seeds are never compared by accident.
type stamp struct {
	CPU        string
	NProc      int
	GoMaxProcs int
	GoVersion  string
	Workload   string
	Seed       uint64
	Traced     bool
	Start      time.Time
}

func stampNow(workload string, seed uint64, traced bool) stamp {
	return stamp{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: workload, Seed: seed, Traced: traced,
		Start: time.Now().UTC(),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("stamp cpu=%q nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d traced=%t start=%s",
		s.CPU, s.NProc, s.GoMaxProcs, s.GoVersion, s.Workload, s.Seed, s.Traced, s.Start.Format(time.RFC3339Nano))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
