// Command e2ebench is the end-to-end benchmark of the rescqd daemon. It
// starts rescqd in-process exactly as cmd/rescqd builds it (service.New
// with the default daemon config, a durable store, AttachStore, Start and
// an http.Server on a loopback listener), drives one named workload over
// real HTTP, checks every result against a direct rescq.Run, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the root of the repository:
//
//	bash e2ebench/run.sh --workload sweep_cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs twice on fresh daemons, untraced and then traced, and the
// metrics are the per-layer ones, plus trace.overhead_frac. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
		seed     = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		sizeName = fs.String("size", "full", "input size: full, or smoke (the smallest inputs, for tests)")
		workDir  = fs.String("workdir", ".bench_build", "directory for WALs and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := sizes[*sizeName]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown size %q\n", *sizeName)
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{
		Workload: *workload,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Size:     sz,
		WorkDir:  *workDir,
		Log:      stdout,
	}
	rep, err := runBenchmark(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	Size     size
	WorkDir  string
	Log      io.Writer
}

// runBenchmark runs the configured workload and returns its report: the
// end-to-end metrics of an untraced pass, or, with Trace set, the
// per-layer metrics of a traced pass that follows an untraced one.
func runBenchmark(ctx context.Context, cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	fmt.Fprintf(cfg.Log, "machine: %s\n", machineStamp())
	fmt.Fprintf(cfg.Log, "workload: %s seed=%d window=%s trace=%t\n", cfg.Workload, cfg.Seed, cfg.Window, cfg.Trace)

	w := workloads[cfg.Workload]
	b := &bench{cfg: cfg, nominal: w.nominal, dir: scratch, reference: cfg.Trace,
		direct: directRuns{done: map[string][]byte{}}}
	plain, err := b.runPhase(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	e2e := endToEndMetrics(plain)
	rep := &report{}
	rep.addPhase(plain)
	if !cfg.Trace {
		rep.metrics = e2e
		rep.notes = plain.notes()
		return rep, nil
	}
	tr := newTracer()
	b.reference = false
	traced, err := b.runPhase(ctx, w, tr)
	if err != nil {
		return nil, err
	}
	rep.addPhase(traced)
	rep.metrics = perLayerMetrics(traced, tr)
	traceCPS := endToEndMetrics(traced)["configs_per_s"].Value
	rep.metrics["trace.overhead_frac"] = metric{1 - traceCPS/e2e["configs_per_s"].Value, "ratio"}
	rep.notes = append(plain.notes(), traced.notes()...)
	rep.notes = append(rep.notes, fmt.Sprintf("untraced configs_per_s = %.6g, traced %.6g", e2e["configs_per_s"].Value, traceCPS))
	traceDir := filepath.Join(cfg.WorkDir, "traces")
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("trace: %d spans written to %s", tr.len(), path))
	return rep, nil
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints.
type report struct {
	metrics   map[string]metric
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func (r *report) addPhase(p *phase) {
	r.attempted += p.chk.attempted
	r.failed += p.chk.failed
	r.failures = append(r.failures, p.chk.failures...)
}

// print writes the human-readable lines, then the result object as the
// last line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for i, f := range r.failures {
		if i == 10 {
			fmt.Fprintf(w, "failure: ... %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric: %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
