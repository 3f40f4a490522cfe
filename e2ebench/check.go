package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	rescq "repro"
	"repro/internal/analytics"
	"repro/internal/service"
	"repro/internal/sim"
)

// spec is one run configuration the client expects back.
type spec struct {
	bench string
	opts  rescq.Options
	key   string // rescq.CacheKey, the daemon's identity for the result
}

// plan is one sweep request and the configurations it must stream back,
// in index order: the cross product of its axes in the daemon's
// benchmark-major order, deduplicated by cache key as the daemon does.
type plan struct {
	req   service.SweepRequest
	specs []spec
	// count[i] is how many lines for index i passed the immediate checks;
	// known[i] is the first such line, so an identical repeat of a
	// resubmitted sweep is checked by one byte comparison.
	count []int
	known [][]byte
}

func newPlan(benches, schedulers []string, distances, ks []int, runs int, seed int64, tenant string) *plan {
	p := &plan{req: service.SweepRequest{
		Benchmarks: benches, Schedulers: schedulers, Distances: distances, KValues: ks,
		Runs: runs, Seed: seed, Stream: service.StreamNDJSON, Tenant: tenant,
	}}
	if len(ks) == 0 {
		ks = []int{0}
	}
	seen := make(map[string]bool)
	for _, b := range benches {
		for _, s := range schedulers {
			for _, d := range distances {
				for _, k := range ks {
					opts := rescq.Options{Scheduler: rescq.SchedulerKind(s), Distance: d, K: k, Runs: runs, Seed: seed}
					key := rescq.CacheKey("bench:"+b, opts)
					if !seen[key] {
						seen[key] = true
						p.specs = append(p.specs, spec{bench: b, opts: opts, key: key})
					}
				}
			}
		}
	}
	p.count = make([]int, len(p.specs))
	p.known = make([][]byte, len(p.specs))
	return p
}

// keyCheck is what the client saw for one configuration identity.
type keyCheck struct {
	spec   spec
	raw    []byte // the first summary the daemon sent for the key
	verify bool   // compare with a direct rescq.Run after the window
	ok     bool   // set by verify
	sum    *summaryLite
}

// summaryLite is the part of a rescq.Summary the aggregate checks read.
type summaryLite struct {
	MeanCycles float64 `json:"mean_cycles"`
	Runs       []struct {
		TotalCycles int `json:"total_cycles"`
	} `json:"runs"`
}

// checker is the correctness gate: every summary must equal a direct
// rescq.Run of the same options, byte for byte with latencies stripped.
type checker struct {
	mu        sync.Mutex
	keys      map[string]*keyCheck
	direct    *directRuns
	attempted int
	failed    int
	failures  []string
}

func newChecker(direct *directRuns) *checker {
	return &checker{keys: make(map[string]*keyCheck), direct: direct}
}

// directRuns memoizes the encoded summaries of direct rescq.Run calls, so
// the two passes of a traced run, which send the same inputs, compute
// each expected summary once.
type directRuns struct {
	mu   sync.Mutex
	done map[string][]byte
}

func (d *directRuns) get(sp spec) ([]byte, error) {
	d.mu.Lock()
	want, ok := d.done[sp.key]
	d.mu.Unlock()
	if ok {
		return want, nil
	}
	sum, err := rescq.Run(sp.bench, sp.opts)
	if err != nil {
		return nil, fmt.Errorf("direct run of %s: %w", sp.bench, err)
	}
	if want, err = encodeStripped(sum); err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.done[sp.key] = want
	d.mu.Unlock()
	return want, nil
}

// seedFrom copies another checker's summaries (unverified), so results
// served later for the same keys must match what it saw.
func (c *checker) seedFrom(o *checker) {
	for key, k := range o.keys {
		c.keys[key] = &keyCheck{spec: k.spec, raw: k.raw}
	}
}

func (c *checker) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

func (c *checker) fail(n int, format string, args ...any) {
	c.mu.Lock()
	c.failed += n
	if len(c.failures) < 100 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// observe records a summary for sp. A key seen before must carry the same
// bytes. It reports whether the summary passed.
func (c *checker) observe(sp spec, raw []byte, verify bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, ok := c.keys[sp.key]
	if !ok {
		k = &keyCheck{spec: sp, raw: append([]byte(nil), raw...)}
		c.keys[sp.key] = k
	} else if !bytes.Equal(k.raw, raw) {
		c.failed++
		if len(c.failures) < 100 {
			c.failures = append(c.failures, fmt.Sprintf("%s: summary differs from the first one sent for the same configuration", sp.bench))
		}
		return false
	}
	k.verify = k.verify || verify
	return true
}

// verify runs every key marked for verification directly through
// rescq.Run on all CPUs and compares the summaries.
func (c *checker) verify(ctx context.Context) error {
	var todo []*keyCheck
	for _, k := range c.keys {
		if k.verify {
			todo = append(todo, k)
		}
	}
	errs := make([]error, len(todo))
	sim.ParallelFor(len(todo), runtime.GOMAXPROCS(0), func(i int) {
		if ctx.Err() != nil {
			errs[i] = ctx.Err()
			return
		}
		k := todo[i]
		want, err := c.direct.get(k.spec)
		if err != nil {
			errs[i] = err
			return
		}
		k.ok = bytes.Equal(want, k.raw)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeStripped encodes a summary as the daemon streams it: per-gate
// latency arrays dropped, HTML escaping off.
func encodeStripped(sum rescq.Summary) ([]byte, error) {
	sum.Runs = append([]rescq.Result(nil), sum.Runs...)
	for i := range sum.Runs {
		sum.Runs[i].CNOTLatencies = nil
		sum.Runs[i].RzLatencies = nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(sum); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// summary decodes (once) the summary the daemon sent for key.
func (c *checker) summary(key string) (*summaryLite, error) {
	k := c.keys[key]
	if k == nil {
		return nil, fmt.Errorf("no result seen for key %.12s", key)
	}
	if k.sum == nil {
		var s summaryLite
		if err := json.Unmarshal(k.raw, &s); err != nil {
			return nil, err
		}
		k.sum = &s
	}
	return k.sum, nil
}

// settle counts the lines of every verified key whose direct run
// disagreed as failed.
func (c *checker) settle(plans []*plan, singles map[string]int) {
	bad := func(key string, n int) {
		if k := c.keys[key]; k != nil && k.verify && !k.ok && n > 0 {
			c.fail(n, "%s %s d=%d seed=%d: summary differs from a direct rescq.Run",
				k.spec.bench, k.spec.opts.Scheduler, k.spec.opts.Distance, k.spec.opts.Seed)
		}
	}
	for _, p := range plans {
		for i, sp := range p.specs {
			bad(sp.key, p.count[i])
		}
	}
	for key, n := range singles {
		bad(key, n)
	}
}

// speedup is the geometric mean, over the plans' benchmark x distance
// cells, of greedy mean_cycles over rescq mean_cycles at the default k.
func (c *checker) speedup(plans []*plan) (float64, int, error) {
	type cell struct {
		p     *plan
		bench string
		d     int
	}
	greedy, rescqC := map[cell]float64{}, map[cell]float64{}
	for _, p := range plans {
		for _, sp := range p.specs {
			s, err := c.summary(sp.key)
			if err != nil {
				return 0, 0, err
			}
			cl := cell{p, sp.bench, sp.opts.Distance}
			switch {
			case sp.opts.Scheduler == rescq.Greedy:
				greedy[cl] = s.MeanCycles
			case sp.opts.Scheduler == rescq.RESCQ && sp.opts.Canonical().K == 25:
				rescqC[cl] = s.MeanCycles
			}
		}
	}
	var logSum float64
	n := 0
	for cl, g := range greedy {
		r, ok := rescqC[cl]
		if !ok || r <= 0 || g <= 0 {
			continue
		}
		logSum += math.Log(g / r)
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no benchmark x distance cell has both a greedy and a rescq result")
	}
	return math.Exp(logSum / float64(n)), n, nil
}

// checkGroupBy compares the daemon's group-by benchmark,scheduler answer
// with aggregates computed from every result the client received: the
// plans' lines and the single runs counted per key.
func (c *checker) checkGroupBy(body []byte, plans []*plan, singles map[string]int) error {
	var resp analytics.GroupByResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	type agg struct {
		results, runs int64
		min, max      int64
	}
	want := map[[2]string]*agg{}
	add := func(sp spec, n int) error {
		if n == 0 {
			return nil
		}
		s, err := c.summary(sp.key)
		if err != nil {
			return err
		}
		g := [2]string{sp.bench, string(sp.opts.Scheduler)}
		a := want[g]
		if a == nil {
			a = &agg{min: math.MaxInt64, max: math.MinInt64}
			want[g] = a
		}
		a.results += int64(n)
		a.runs += int64(n * len(s.Runs))
		for _, r := range s.Runs {
			a.min = min(a.min, int64(r.TotalCycles))
			a.max = max(a.max, int64(r.TotalCycles))
		}
		return nil
	}
	for _, p := range plans {
		for i, sp := range p.specs {
			if err := add(sp, p.count[i]); err != nil {
				return err
			}
		}
	}
	for key, n := range singles {
		if err := add(c.keys[key].spec, n); err != nil {
			return err
		}
	}
	if len(resp.Groups) != len(want) {
		return fmt.Errorf("analytics group-by has %d groups, the client saw %d", len(resp.Groups), len(want))
	}
	for _, g := range resp.Groups {
		a := want[[2]string{g.Key["benchmark"], g.Key["scheduler"]}]
		if a == nil {
			return fmt.Errorf("analytics group %v was never streamed", g.Key)
		}
		if g.Results != a.results || g.Runs != a.runs || g.MinCycles != a.min || g.MaxCycles != a.max {
			return fmt.Errorf("analytics group %v: results/runs/min/max %d/%d/%d/%d, client computed %d/%d/%d/%d",
				g.Key, g.Results, g.Runs, g.MinCycles, g.MaxCycles, a.results, a.runs, a.min, a.max)
		}
	}
	return nil
}
