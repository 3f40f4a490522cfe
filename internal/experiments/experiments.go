// Package experiments regenerates every table and figure of the paper's
// evaluation (section 5 and the appendix) from this repository's own
// simulator, benchmark generators and schedulers. Each experiment returns
// both structured data (asserted by tests and the benchmark harness) and a
// rendered ASCII report (printed by cmd/rescq-bench).
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	_ "repro/internal/core" // registers the "rescq" scheduler
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Options configures an experiment run.
type Options struct {
	// Distance is the surface code distance (default 7, the paper's
	// headline operating point).
	Distance int
	// PhysError is the physical error rate (default 1e-4).
	PhysError float64
	// Runs is the number of seeds per configuration (default 3).
	Runs int
	// BaseSeed offsets the seed sequence (default 1).
	BaseSeed int64
	// Quick restricts sweeps to the small benchmarks and one seed so the
	// whole harness finishes in seconds; used by tests.
	Quick bool
	// Layout names the lattice layout to run on ("" means the default
	// "star", the paper's substrate); LayoutParams passes its knobs. Both
	// resolve through the lattice layout registry, which makes every
	// experiment driver topology-parametric.
	Layout       string
	LayoutParams map[string]string
}

func (o Options) withDefaults() Options {
	if o.Distance == 0 {
		o.Distance = 7
	}
	if o.PhysError == 0 {
		o.PhysError = 1e-4
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Quick && o.Runs > 2 {
		o.Runs = 2
	}
	return o
}

func (o Options) simConfig() sim.Config {
	return sim.Config{Distance: o.Distance, PhysError: o.PhysError}
}

// buildGrid constructs a fresh grid for n qubits under the options' layout
// via the lattice layout registry.
func (o Options) buildGrid(n int) (*lattice.Grid, error) {
	return lattice.Build(o.Layout, n, lattice.Params(o.LayoutParams))
}

// benchList returns the benchmarks an experiment sweeps: all of Table 3,
// or the small subset in Quick mode.
func (o Options) benchList() []string {
	if o.Quick {
		return []string{"vqe_n13", "qaoa_n15", "wstate_n27", "gcm_n13", "qft_n18", "hamsim_n25"}
	}
	return qbench.Names()
}

// representative returns the sensitivity-study benchmarks (section 5.2),
// or a cheaper stand-in set in Quick mode.
func (o Options) representative() []string {
	if o.Quick {
		return []string{"gcm_n13", "qft_n18"}
	}
	return qbench.Representative()
}

// SchedulerNames lists the evaluated schedulers in the paper's order.
var SchedulerNames = []string{"greedy", "autobraid", "rescq"}

// makeScheduler builds a fresh scheduler instance through the open
// scheduler registry. The rescq name accepts a recomputation period via k
// (<= 0 means the default 25); policies registered by external packages
// resolve the same way.
func makeScheduler(name string, k int) (sim.Scheduler, error) {
	s, err := sched.New(name, sched.Params{K: k})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return s, nil
}

// runJob names one simulation configuration inside a batch: a benchmark, a
// scheduler, RESCQ's k, a compression fraction, and the sweep options whose
// Runs/BaseSeed/Distance/PhysError apply to it.
type runJob struct {
	o           Options
	bench       string
	sched       string
	k           int
	compression float64
}

// runJobs executes a whole batch of configurations on one bounded worker
// pool (sim.ParallelFor), fanning out over every (configuration, seed)
// pair so sweeps saturate all cores even at one seed per configuration.
// The returned aggregates are in input order; each seeded run is
// self-contained (own grid, scheduler, RNG) and aggregation happens in
// seed order, so results are byte-identical to a serial loop regardless of
// goroutine completion order.
func runJobs(jobs []runJob) ([]sim.Aggregate, error) {
	type unit struct{ job, run int }
	var units []unit
	results := make([][]*sim.Result, len(jobs))
	dags := make([]*circuit.DAG, len(jobs))
	grids := make([]*lattice.Grid, len(jobs))
	for j := range jobs {
		jobs[j].o = jobs[j].o.withDefaults()
		spec, ok := qbench.ByName(jobs[j].bench)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", jobs[j].bench)
		}
		circ := spec.Circuit()
		dags[j] = circuit.NewDAG(circ)
		// One deterministic layout build per configuration; each seeded
		// run below mutates its own clone.
		g, err := jobs[j].o.buildGrid(circ.NumQubits)
		if err != nil {
			return nil, err
		}
		grids[j] = g
		results[j] = make([]*sim.Result, jobs[j].o.Runs)
		for i := 0; i < jobs[j].o.Runs; i++ {
			units = append(units, unit{j, i})
		}
	}
	errs := make([]error, len(units))
	sim.ParallelFor(len(units), 0, func(u int) {
		j, i := units[u].job, units[u].run
		jb := jobs[j]
		g := grids[j].Clone()
		if jb.compression > 0 {
			// The compression layout is part of the architecture, not the
			// stochastic run: derive its seed from the benchmark so all
			// schedulers see the same compressed grid per run index.
			g.Compress(jb.compression, rand.New(rand.NewSource(int64(len(jb.bench))*1315423911+int64(i))))
		}
		s, err := makeScheduler(jb.sched, jb.k)
		if err != nil {
			errs[u] = err
			return
		}
		// Sharing dags[j] across goroutines is safe: runs only read it.
		results[j][i], errs[u] = sim.RunDAG(context.Background(), g, dags[j], jb.o.simConfig(), jb.o.BaseSeed+int64(i), s)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	aggs := make([]sim.Aggregate, len(jobs))
	for j := range jobs {
		aggs[j] = sim.AggregateResults(results[j])
	}
	return aggs, nil
}

// runConfig simulates one benchmark under one scheduler for o.Runs seeds on
// a fresh grid per run (compression fraction applied when > 0) and pools
// the results.
func runConfig(o Options, benchName, schedName string, k int, compression float64) (sim.Aggregate, error) {
	aggs, err := runJobs([]runJob{{o: o, bench: benchName, sched: schedName, k: k, compression: compression}})
	if err != nil {
		return sim.Aggregate{}, err
	}
	return aggs[0], nil
}

// sweep helpers ---------------------------------------------------------

// distances returns the code-distance sweep of Figure 11.
func (o Options) distances() []int {
	if o.Quick {
		return []int{5, 7, 9}
	}
	return []int{5, 7, 9, 11, 13}
}

// errorRates returns the physical-error-rate sweep of Figure 12.
func (o Options) errorRates() []float64 {
	if o.Quick {
		return []float64{1e-3, 1e-4}
	}
	return []float64{1e-3, 3e-4, 1e-4, 3e-5, 1e-5}
}

// kValues returns the MST-recomputation-period sweep of Figures 10/13.
var kValues = []int{25, 50, 100, 200}

// compressions returns the grid-compression sweep of Figure 14.
func (o Options) compressions() []float64 {
	if o.Quick {
		return []float64{0, 0.5, 1.0}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1.0}
}

// frame-only guard used by a couple of drivers.
var _ = circuit.KindRz
