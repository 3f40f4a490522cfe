package experiments

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/qbench"
	"repro/internal/sim"
)

// AblationResult quantifies each RESCQ mechanism's contribution by
// disabling it in isolation — the design-choice study DESIGN.md calls out.
type AblationResult struct {
	// Cycles[bench][variant] is the mean makespan.
	Cycles map[string]map[string]float64
	Text   string
}

// ablationVariants lists the studied configurations.
var ablationVariants = []struct {
	name string
	cfg  core.Config
}{
	{"full", core.Config{}},
	{"no-parallel-prep", core.Config{MaxParallelPreps: 1}},
	{"no-eager-prep", core.Config{DisableEagerPrep: true}},
	{"no-mst-routing", core.Config{DisableMSTRouting: true}},
	{"stale-mst-k200", core.Config{K: 200}},
}

// Ablation runs every variant on the representative benchmarks.
func Ablation(o Options) (AblationResult, error) {
	o = o.withDefaults()
	res := AblationResult{Cycles: map[string]map[string]float64{}}
	header := []string{"Benchmark"}
	for _, v := range ablationVariants {
		header = append(header, v.name)
	}
	t := metrics.NewTable(header...)
	for _, bench := range o.representative() {
		spec, ok := qbench.ByName(bench)
		if !ok {
			return res, fmt.Errorf("experiments: unknown benchmark %q", bench)
		}
		circ := spec.Circuit()
		res.Cycles[bench] = map[string]float64{}
		cells := []any{bench}
		// Every (variant, seed) run is independent; fan them out over the
		// shared pool and aggregate per variant in seed order.
		results := make([][]*sim.Result, len(ablationVariants))
		for vi := range results {
			results[vi] = make([]*sim.Result, o.Runs)
		}
		errs := make([]error, len(ablationVariants)*o.Runs)
		baseGrid, err := o.buildGrid(circ.NumQubits)
		if err != nil {
			return res, err
		}
		dag := circuit.NewDAG(circ)
		sim.ParallelFor(len(errs), 0, func(u int) {
			vi, i := u/o.Runs, u%o.Runs
			results[vi][i], errs[u] = sim.RunDAG(context.Background(), baseGrid.Clone(), dag, o.simConfig(),
				o.BaseSeed+int64(i), core.New(ablationVariants[vi].cfg))
		})
		for _, err := range errs {
			if err != nil {
				return res, err
			}
		}
		for vi, v := range ablationVariants {
			agg := sim.AggregateResults(results[vi])
			res.Cycles[bench][v.name] = agg.MeanCycles
			cells = append(cells, fmt.Sprintf("%.0f", agg.MeanCycles))
		}
		t.Row(cells...)
	}
	res.Text = "Ablation: RESCQ mechanisms disabled one at a time (mean cycles)\n" + t.String()
	return res, nil
}
