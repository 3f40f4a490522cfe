package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rescq "repro"
	"repro/internal/service"
	"repro/internal/store"
)

// size fixes the inputs of every workload.
type size struct {
	coldBenches   []string // sweep_cold's benchmarks, crossed with all schedulers and distances
	distances     []int
	runs          int
	tinyBenches   []string // the tiny configurations of sweep_cached
	interactive   string   // the interactive tenant's one tiny benchmark
	tinyDistances []int
	tinyK         []int
	preludeSweeps int           // sweeps that build sweep_cached's WAL
	resubmit      int           // the most recent of those, resubmitted in the window
	setups        int           // daemon set-ups per pass on an empty store; setup_s is their median
	cachedSetups  int           // the same on sweep_cached, where each set-up replays a WAL
	probe         time.Duration // per kind the probe times, split over the gaps after the window's blocks
	scrapeEvery   time.Duration
	units         int // when > 0, the sweeps per run, whatever --seconds says
}

var allSchedulers = []string{string(rescq.Greedy), string(rescq.AutoBraid), string(rescq.RESCQ)}

var sizes = map[string]size{
	"full": {
		coldBenches:   []string{"qft_n63", "multiplier_n45", "qugan_n111", "gcm_n13", "dnn_n16", "qft_n29"},
		distances:     []int{5, 7, 9},
		runs:          2,
		tinyBenches:   []string{"ising_n34", "vqe_n13", "hamsim_n25", "wstate_n27"},
		interactive:   "wstate_n27",
		tinyDistances: []int{5, 7, 9},
		tinyK:         []int{10, 25, 50},
		preludeSweeps: 80,
		resubmit:      8,
		setups:        21,
		cachedSetups:  5,
		probe:         1500 * time.Millisecond,
		scrapeEvery:   time.Second,
	},
	"smoke": {
		coldBenches:   []string{"gcm_n13"},
		distances:     []int{5},
		runs:          1,
		tinyBenches:   []string{"vqe_n13"},
		interactive:   "vqe_n13",
		tinyDistances: []int{5},
		tinyK:         []int{25},
		preludeSweeps: 3,
		resubmit:      2,
		setups:        2,
		cachedSetups:  2,
		probe:         50 * time.Millisecond,
		scrapeEvery:   100 * time.Millisecond,
		units:         2,
	},
}

// workload is one named traffic mix. Its work per run is fixed: a run
// sends round(seconds/nominal) sweeps, where nominal is how long one
// sweep took at the commit that introduced the benchmark on the reference
// machine (2-vCPU Xeon, go1.24.0). A run there lasts about --seconds, and
// a faster daemon finishes the same work sooner.
type workload struct {
	nominal time.Duration
	run     func(ctx context.Context, b *bench, ph *phase) error
}

var workloads = map[string]workload{
	"sweep_cold": {2700 * time.Millisecond, func(ctx context.Context, b *bench, ph *phase) error {
		return runColdSweeps(ctx, b, ph, false, false)
	}},
	"sweep_cached": {12 * time.Millisecond, runSweepCached},
	"tenants_mixed": {2700 * time.Millisecond, func(ctx context.Context, b *bench, ph *phase) error {
		return runColdSweeps(ctx, b, ph, false, true)
	}},
	"sweep_cluster": {2400 * time.Millisecond, func(ctx context.Context, b *bench, ph *phase) error {
		return runColdSweeps(ctx, b, ph, true, false)
	}},
}

// units is the number of sweeps one run of the workload sends.
func (b *bench) units() int {
	if b.cfg.Size.units > 0 {
		return b.cfg.Size.units
	}
	n := int(math.Round(float64(b.cfg.Window) / float64(b.nominal)))
	return max(n, 1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one invocation's state shared by its passes.
type bench struct {
	cfg     runConfig
	nominal time.Duration // the workload's nominal sweep time
	dir     string
	dirs    atomic.Int64

	// sweep_cached's prelude, built once per invocation: the WAL template
	// and the results that went into it.
	template     string
	preludePlans []*plan
	preludeChk   *checker

	// reference marks the untraced pass of a traced run, which only needs
	// configs_per_s: it skips the probes.
	reference bool
	direct    directRuns
}

// newDir returns a fresh directory under the invocation's scratch dir.
func (b *bench) newDir(name string) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.dirs.Add(1)))
}

// deriveSeed maps the workload seed, a purpose and a repetition index to
// a simulation seed: fixed by the arguments, never by timing, and distinct
// across repetitions so cold sweeps never hit the cache by accident.
func deriveSeed(seed int64, salt string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64() ^ uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>25) + 1
}

func (b *bench) coldPlan(tenant string, rep int) *plan {
	sz := b.cfg.Size
	return newPlan(sz.coldBenches, allSchedulers, sz.distances, nil, sz.runs, deriveSeed(b.cfg.Seed, "cold", rep), tenant)
}

func (b *bench) tinyPlan(rep int) *plan {
	sz := b.cfg.Size
	return newPlan(sz.tinyBenches, allSchedulers, sz.tinyDistances, sz.tinyK, 1, deriveSeed(b.cfg.Seed, "tiny", rep), "")
}

// lineObs is one result line received inside the window.
type lineObs struct {
	at  time.Time
	lat time.Duration // from its sweep's POST
	sp  *spec
}

// reqObs is one interactive request.
type reqObs struct {
	posted time.Time
	lat    time.Duration
	sp     spec
	probe  bool // sent by the probe, not by tenants_mixed's interactive tenant
}

// phase is one pass over a workload: set-ups, the measured window, and
// what happened in it.
type phase struct {
	tr  *tracer
	chk *checker

	setups, attaches []time.Duration
	start, end       time.Time
	closed           chan struct{} // closed when the window ends
	closedFlag       atomic.Bool

	mu          sync.Mutex
	lines       []lineObs
	sweeps      [][2]time.Time // connection 1's sweeps in the window: POST, last line
	submits     []time.Duration
	lineGaps    []time.Duration // between lines of all-hit sweeps
	interactive []reqObs
	queries     map[string][]time.Duration // per query kind
	queryRounds []time.Duration            // mean query latency of each round of the set
	scrapes     []time.Duration
	singles     map[string]int // interactive results per key
	probes      atomic.Int64   // interactive probe requests sent

	promStart, promEnd map[string]float64
	inGaps             map[string]float64 // counter movement during the probe gaps
	speedup            float64
	speedupCells       int
	replay             *replayStats
	storeReplay        []time.Duration
	peakRSSMB          float64
	cpuStart, cpuEnd   [2]uint64 // host CPU ticks: total, stolen by the hypervisor
	plans              []*plan   // every plan whose results were received
}

func (ph *phase) inWindow() bool { return !ph.closedFlag.Load() }

// runPhase sets the workload's daemons up, runs it, checks the results
// and tears the daemons down.
func (b *bench) runPhase(ctx context.Context, w workload, tr *tracer) (*phase, error) {
	ph := &phase{tr: tr, chk: newChecker(&b.direct), closed: make(chan struct{}),
		queries: map[string][]time.Duration{}, singles: map[string]int{}, inGaps: map[string]float64{}}
	if err := w.run(ctx, b, ph); err != nil {
		return nil, err
	}
	ph.chk.settle(ph.plans, ph.singles)
	return ph, nil
}

// setup starts the workload's daemons several times, each on a
// fresh store directory (a copy of template when one is given), and
// keeps the last one running. setup_s is the median of the set-up times.
func (b *bench) setup(ctx context.Context, ph *phase, clustered bool, template string) (*stack, error) {
	n := b.cfg.Size.setups
	if template != "" {
		n = b.cfg.Size.cachedSetups
	}
	var st *stack
	for i := 0; i < n; i++ {
		dir := b.newDir("wal")
		if template != "" {
			if err := copyDir(template, dir); err != nil {
				return nil, err
			}
		}
		var (
			setup, attach time.Duration
			err           error
		)
		runtime.GC() // each set-up starts from a collected heap
		st, setup, attach, err = startStack(ctx, dir, clustered, ph.tr)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, setup)
		ph.attaches = append(ph.attaches, attach)
		if i < n-1 {
			if err := st.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon after set-up: %w", err)
			}
			os.RemoveAll(dir)
		}
	}
	return st, nil
}

// openWindow starts the measured window on a collected heap, with the
// process's peak RSS reset so peak_rss_mb covers the load alone.
func (ph *phase) openWindow() {
	runtime.GC()
	resetPeakRSS()
	ph.cpuStart = cpuTicks()
	ph.start = time.Now()
}

// closeWindow ends the measured window.
func (ph *phase) closeWindow() {
	ph.end = time.Now()
	ph.cpuEnd = cpuTicks()
	ph.peakRSSMB = peakRSSMB()
	ph.closedFlag.Store(true)
	close(ph.closed)
}

// blocks splits n sweeps into the window's blocks: one sweep each, or
// five runs of consecutive sweeps when there are more than five. It
// returns the index one past each block's last sweep.
func blocks(n int) []int {
	k := min(n, 5)
	ends := make([]int, k)
	for i := range ends {
		ends[i] = (i + 1) * n / k
	}
	return ends
}

// sweeper streams n plans on one connection, recording every line, then
// closes the window. After each block of sweeps it runs gap, when not nil.
func (b *bench) sweeper(ctx context.Context, c *conn, ph *phase, n int, next func(rep int) *plan, expectCached bool, gap func(blocks int) error) error {
	defer ph.closeWindow()
	ends := blocks(n)
	for rep := 0; rep < n; rep++ {
		start := time.Now()
		if err := b.streamPlan(ctx, c, ph, next(rep), expectCached, true); err != nil {
			return err
		}
		ph.mu.Lock()
		ph.sweeps = append(ph.sweeps, [2]time.Time{start, time.Now()})
		ph.mu.Unlock()
		if gap != nil && slices.Contains(ends, rep+1) {
			if err := gap(len(ends)); err != nil {
				return err
			}
		}
	}
	return nil
}

// gap returns the pause run after each block of the window, in which the
// probe times what the window does not: analytics query rounds from
// connection 1, then interactive requests from both connections, each
// spread over the blocks so a passing slowdown of the machine moves few
// samples. Connection 2's own role holds mu while it sends and so pauses;
// the daemon is otherwise idle in a gap, which the measured blocks
// exclude.
func (b *bench) gap(ctx context.Context, ph *phase, conns []*conn, mu *sync.Mutex, queries, interactive bool, queryBench string) func(blocks int) error {
	if b.reference || (!queries && !interactive) {
		return nil
	}
	return func(blocks int) error {
		seg := b.cfg.Size.probe / time.Duration(blocks)
		mu.Lock()
		defer mu.Unlock()
		// The daemon's counters move in the gap too; bracket it so the
		// per-layer deltas cover the blocks alone.
		before, err := conns[0].scrape(ctx)
		if err != nil {
			return err
		}
		if queries {
			if err := b.probeQueries(ctx, conns[0], ph, seg, queryBench); err != nil {
				return err
			}
		}
		if interactive {
			if err := b.probeInteractive(ctx, conns, ph, seg); err != nil {
				return err
			}
		}
		after, err := conns[0].scrape(ctx)
		if err != nil {
			return err
		}
		for name, v := range after {
			ph.inGaps[name] += v - before[name]
		}
		return nil
	}
}

// streamPlan sends one plan and checks every line it streams back. The
// caller keeps the plan: its per-index counts feed the aggregate checks.
func (b *bench) streamPlan(ctx context.Context, c *conn, ph *phase, p *plan, expectCached, verify bool) error {
	seen := make([]bool, len(p.specs))
	next, received := 0, 0
	var prev time.Time
	terminal := false
	onLine := func(posted, at time.Time, line []byte) error {
		idx := next
		if next >= len(p.specs) || seen[next] || p.known[next] == nil || !bytes.Equal(line, p.known[next]) {
			// Not an identical repeat of a line that passed every check:
			// decode and check it.
			var l sweepLine
			if err := json.Unmarshal(line, &l); err != nil {
				ph.chk.attempt(1)
				ph.chk.fail(1, "undecodable sweep line: %v", err)
				return nil
			}
			if l.Index == nil {
				terminal = true
				if l.State != string(service.JobDone) || l.Progress == nil || l.Progress.Done != len(p.specs) || l.Progress.Total != len(p.specs) {
					ph.chk.fail(1, "sweep %s ended %s with progress %+v, want done %d/%d", l.ID, l.State, l.Progress, len(p.specs), len(p.specs))
				}
				return nil
			}
			idx = *l.Index
			if err := checkLine(p, seen, idx, l, expectCached); err != nil {
				ph.chk.attempt(1)
				ph.chk.fail(1, "%v", err)
				if idx >= 0 && idx < len(seen) && !seen[idx] {
					seen[idx] = true
					received++
				}
				return nil
			}
			if !ph.chk.observe(p.specs[idx], l.Summary, verify) {
				ph.chk.attempt(1)
				seen[idx] = true
				received++
				return nil
			}
			p.known[idx] = append([]byte(nil), line...)
		}
		seen[idx] = true
		received++
		for next < len(p.specs) && seen[next] {
			next++
		}
		ph.chk.attempt(1)
		p.count[idx]++
		if ph.inWindow() {
			ph.mu.Lock()
			ph.lines = append(ph.lines, lineObs{at: at, lat: at.Sub(posted), sp: &p.specs[idx]})
			if expectCached && !prev.IsZero() {
				ph.lineGaps = append(ph.lineGaps, at.Sub(prev))
			}
			ph.mu.Unlock()
		}
		prev = at
		return nil
	}
	posted, headers, err := c.streamSweep(ctx, p.req, onLine)
	if !headers.IsZero() && ph.inWindow() {
		ph.mu.Lock()
		ph.submits = append(ph.submits, headers.Sub(posted))
		ph.mu.Unlock()
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		ph.chk.attempt(len(p.specs) - received)
		ph.chk.fail(len(p.specs)-received, "sweep failed after %d/%d configurations: %v", received, len(p.specs), err)
		return nil
	}
	if missing := len(p.specs) - received; missing > 0 {
		ph.chk.attempt(missing)
		ph.chk.fail(missing, "sweep streamed %d/%d configurations", received, len(p.specs))
	} else if !terminal {
		ph.chk.fail(1, "sweep ended without its job view")
	}
	return nil
}

// checkLine checks a decoded result line against the plan.
func checkLine(p *plan, seen []bool, i int, l sweepLine, expectCached bool) error {
	if i < 0 || i >= len(p.specs) {
		return fmt.Errorf("sweep line index %d out of range [0,%d)", i, len(p.specs))
	}
	if seen[i] {
		return fmt.Errorf("sweep line index %d sent twice", i)
	}
	sp := p.specs[i]
	switch {
	case l.Error != "":
		return fmt.Errorf("%s %s: %s", sp.bench, sp.opts.Scheduler, l.Error)
	case l.Benchmark != sp.bench || l.Scheduler != string(sp.opts.Scheduler):
		return fmt.Errorf("index %d is %s/%s, want %s/%s", i, l.Benchmark, l.Scheduler, sp.bench, sp.opts.Scheduler)
	case l.Cached != expectCached:
		return fmt.Errorf("%s %s d=%d: cached=%t, want %t", sp.bench, sp.opts.Scheduler, sp.opts.Distance, l.Cached, expectCached)
	}
	return nil
}

// interactiveSpec is the i-th blocking single-configuration request.
func (b *bench) interactiveSpec(salt string, i int) spec {
	bench := b.cfg.Size.interactive
	opts := rescq.Options{Scheduler: rescq.RESCQ, Distance: 5, Runs: 1, Seed: deriveSeed(b.cfg.Seed, salt, i)}
	return spec{bench: bench, opts: opts, key: rescq.CacheKey("bench:"+bench, opts)}
}

// interactive sends blocking /v1/run requests of one tiny configuration,
// each as soon as the previous reply lands, until the window closes. It
// scrapes /metrics between requests at the operator's cadence.
func (b *bench) interactive(ctx context.Context, c *conn, mu *sync.Mutex, ph *phase) error {
	last := time.Now()
	for i := 0; ph.inWindow(); i++ {
		mu.Lock()
		var err error
		if time.Since(last) >= b.cfg.Size.scrapeEvery {
			err = b.scrapeOnce(ctx, c, ph)
			last = time.Now()
		}
		if err == nil {
			err = b.interactiveOnce(ctx, c, ph, "interactive", i, true, false)
		}
		mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// interactiveOnce sends the i-th blocking single-configuration request
// and checks the reply; record keeps its latency.
func (b *bench) interactiveOnce(ctx context.Context, c *conn, ph *phase, salt string, i int, record, probe bool) error {
	sp := b.interactiveSpec(salt, i)
	posted := time.Now()
	reply, err := c.runOnce(ctx, service.RunRequest{Benchmark: sp.bench, Options: sp.opts, Tenant: "interactive"})
	lat := time.Since(posted)
	ph.chk.attempt(1)
	switch {
	case err != nil:
		if ctx.Err() != nil {
			return ctx.Err()
		}
		ph.chk.fail(1, "interactive %s: %v", sp.bench, err)
		return nil
	case reply.State != string(service.JobDone) || reply.Error != "":
		ph.chk.fail(1, "interactive %s: state %s error %q", sp.bench, reply.State, reply.Error)
		return nil
	case reply.Cached:
		ph.chk.fail(1, "interactive %s seed %d: served from cache, want a fresh run", sp.bench, sp.opts.Seed)
		return nil
	}
	if !ph.chk.observe(sp, reply.Summary, true) {
		return nil
	}
	ph.mu.Lock()
	ph.singles[sp.key]++
	if record {
		ph.interactive = append(ph.interactive, reqObs{posted: posted, lat: lat, sp: sp, probe: probe})
	}
	ph.mu.Unlock()
	return nil
}

// probeQueries times rounds of the analytics query set from one client
// for d, after an untimed warm-up of a sixth of that.
func (b *bench) probeQueries(ctx context.Context, c *conn, ph *phase, d time.Duration, queryBench string) error {
	qs := analyticsQueries(queryBench)
	for _, seg := range []time.Duration{d / 6, d} {
		for end := time.Now().Add(seg); time.Now().Before(end); {
			if err := b.queryOnce(ctx, c, ph, qs, seg == d); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeInteractive times interactive requests for d, after an untimed but
// checked warm-up of a sixth of that, from one closed-loop client per
// connection. Two clients keep both vCPUs of the reference machine busy;
// with one, the tail mostly timed the wake-ups of the idle vCPU.
func (b *bench) probeInteractive(ctx context.Context, conns []*conn, ph *phase, d time.Duration) error {
	var fns []func() error
	for _, c := range conns {
		fns = append(fns, func() error {
			for _, seg := range []time.Duration{d / 6, d} {
				for end := time.Now().Add(seg); time.Now().Before(end); {
					i := int(ph.probes.Add(1))
					if err := b.interactiveOnce(ctx, c, ph, "probe", i, seg == d, true); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	return loads(fns...)
}

// scrapeOnce polls /metrics and /healthz as an operator does.
func (b *bench) scrapeOnce(ctx context.Context, c *conn, ph *phase) error {
	t := time.Now()
	if _, err := c.scrape(ctx); err != nil {
		return err
	}
	d := time.Since(t)
	ph.mu.Lock()
	ph.scrapes = append(ph.scrapes, d)
	ph.mu.Unlock()
	return nil
}

// queryOnce runs the fixed analytics query set once; record keeps its
// latencies.
func (b *bench) queryOnce(ctx context.Context, c *conn, ph *phase, qs []analyticsQuery, record bool) error {
	if !record {
		for _, q := range qs {
			if _, err := c.get(ctx, q.path); err != nil {
				return err
			}
		}
		return nil
	}
	var total time.Duration
	for _, q := range qs {
		t := time.Now()
		if _, err := c.get(ctx, q.path); err != nil {
			return err
		}
		d := time.Since(t)
		total += d
		ph.mu.Lock()
		ph.queries[q.kind] = append(ph.queries[q.kind], d)
		ph.mu.Unlock()
	}
	if len(qs) > 0 {
		ph.mu.Lock()
		ph.queryRounds = append(ph.queryRounds, total/time.Duration(len(qs)))
		ph.mu.Unlock()
	}
	return nil
}

// operator scrapes (and, with queries, runs the analytics query set) once
// per scrape interval until the window closes, holding mu while it uses c.
func (b *bench) operator(ctx context.Context, c *conn, mu *sync.Mutex, ph *phase, qs []analyticsQuery) error {
	tick := time.NewTicker(b.cfg.Size.scrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-ph.closed:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		mu.Lock()
		err := b.scrapeOnce(ctx, c, ph)
		if err == nil {
			err = b.queryOnce(ctx, c, ph, qs, true)
		}
		mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// loads runs the window's concurrent roles and waits for all of them.
func loads(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finish runs what follows every window: the probes that give the
// end-to-end metrics the window did not measure, the correctness gate,
// the speed-up, the traced engine replay and the daemon's teardown.
func (b *bench) finish(ctx context.Context, ph *phase, st *stack, c *conn, speedupPlans []*plan) error {
	var err error
	if ph.promEnd, err = c.scrape(ctx); err != nil {
		return err
	}
	if err := ph.chk.verify(ctx); err != nil {
		return err
	}
	if ph.speedup, ph.speedupCells, err = ph.chk.speedup(speedupPlans); err != nil {
		return err
	}
	if ph.tr != nil {
		cycles := func(sp spec) ([]int, error) {
			s, err := ph.chk.summary(sp.key)
			if err != nil {
				return nil, err
			}
			out := make([]int, len(s.Runs))
			for i, r := range s.Runs {
				out[i] = r.TotalCycles
			}
			return out, nil
		}
		specs := speedupPlans[0].specs
		if ph.replay, err = replay(ctx, ph.tr, specs, cycles); err != nil {
			ph.chk.fail(1, "traced engine replay: %v", err)
		}
	}
	return st.stop()
}

// runColdSweeps is sweep_cold, sweep_cluster and tenants_mixed: one
// tenant streams back-to-back cold sweeps on connection 1. On connection
// 2 an operator scrapes /metrics and /healthz once a second; with mixed
// set, connection 2 also carries an interactive tenant's blocking single
// tiny runs, each sent as soon as the previous reply lands.
func runColdSweeps(ctx context.Context, b *bench, ph *phase, clustered, mixed bool) error {
	st, err := b.setup(ctx, ph, clustered, "")
	if err != nil {
		return err
	}
	defer st.stop()
	sweeps, second := newConn(st.front.url), newConn(st.front.url)
	defer sweeps.close()
	defer second.close()
	if ph.promStart, err = second.scrape(ctx); err != nil {
		return err
	}
	tenant := "sweeper"
	if mixed {
		tenant = "whale"
	}
	plans := make([]*plan, b.units())
	for i := range plans {
		plans[i] = b.coldPlan(tenant, i)
	}
	var mu sync.Mutex
	gap := b.gap(ctx, ph, []*conn{sweeps, second}, &mu, true, !mixed, b.cfg.Size.coldBenches[0])
	ph.openWindow()
	err = loads(
		func() error {
			return b.sweeper(ctx, sweeps, ph, len(plans), func(rep int) *plan { return plans[rep] }, false, gap)
		},
		func() error {
			if mixed {
				return b.interactive(ctx, second, &mu, ph)
			}
			return b.operator(ctx, second, &mu, ph, nil)
		},
	)
	if err != nil {
		return err
	}
	ph.plans = plans
	return b.finish(ctx, ph, st, second, plans)
}

// runSweepCached is sweep_cached: the daemon restarts on a copy of a WAL
// of tiny-configuration results, then the most recent sweeps of that WAL
// are resubmitted back to back (every configuration a cache hit) while an
// operator scrapes and runs the analytics query set once a second.
func runSweepCached(ctx context.Context, b *bench, ph *phase) error {
	if err := b.prelude(ctx); err != nil {
		return err
	}
	ph.chk.seedFrom(b.preludeChk)
	st, err := b.setup(ctx, ph, false, b.template)
	if err != nil {
		return err
	}
	defer st.stop()
	sweeps, ops := newConn(st.front.url), newConn(st.front.url)
	defer sweeps.close()
	defer ops.close()
	if ph.promStart, err = ops.scrape(ctx); err != nil {
		return err
	}
	sz := b.cfg.Size
	resubmit := make([]*plan, sz.resubmit)
	for r := range resubmit {
		resubmit[r] = b.tinyPlan(sz.preludeSweeps - sz.resubmit + r)
	}
	var mu sync.Mutex
	gap := b.gap(ctx, ph, []*conn{sweeps, ops}, &mu, false, true, "")
	ph.openWindow()
	err = loads(
		func() error {
			return b.sweeper(ctx, sweeps, ph, b.units(), func(rep int) *plan { return resubmit[rep%len(resubmit)] }, true, gap)
		},
		func() error { return b.operator(ctx, ops, &mu, ph, analyticsQueries(sz.tinyBenches[0])) },
	)
	if err != nil {
		return err
	}
	ph.plans = append(append([]*plan(nil), b.preludePlans...), resubmit...)
	body, err := ops.get(ctx, "/v1/analytics/groupby?by=benchmark,scheduler")
	if err != nil {
		return err
	}
	if err := ph.chk.checkGroupBy(body, ph.plans, ph.singles); err != nil {
		ph.chk.fail(1, "analytics: %v", err)
	}
	if ph.tr != nil {
		for i := 0; i < 3; i++ {
			dir := b.newDir("replay")
			if err := copyDir(b.template, dir); err != nil {
				return err
			}
			t := time.Now()
			// As AttachStore opens it: the daemon retains 1024 finished jobs.
			s, err := store.Open(dir, store.Options{RetainJobs: 1024})
			if err != nil {
				return err
			}
			ph.storeReplay = append(ph.storeReplay, time.Since(t))
			s.Close()
			os.RemoveAll(dir)
		}
	}
	ph.chk.attempt(b.preludeChk.attempted)
	if b.preludeChk.failed > 0 {
		ph.chk.fail(b.preludeChk.failed, "prelude: %d failed configurations", b.preludeChk.failed)
	}
	return b.finish(ctx, ph, st, ops, resubmit)
}

// prelude builds sweep_cached's WAL once per invocation, untimed: a
// daemon computes cfg.Size.preludeSweeps sweeps of tiny configurations,
// the last cfg.Size.resubmit of them one after another so they are the
// most recent in the log, and shuts down cleanly.
func (b *bench) prelude(ctx context.Context) error {
	if b.template != "" {
		return nil
	}
	dir := b.newDir("prelude")
	st, _, _, err := startStack(ctx, dir, false, nil)
	if err != nil {
		return err
	}
	defer st.stop()
	ph := &phase{chk: newChecker(nil), closed: make(chan struct{})}
	ph.closedFlag.Store(true) // nothing here is inside a window
	sz := b.cfg.Size
	plans := make([]*plan, sz.preludeSweeps)
	for i := range plans {
		plans[i] = b.tinyPlan(i)
	}
	conns := []*conn{newConn(st.front.url), newConn(st.front.url)}
	defer conns[0].close()
	defer conns[1].close()
	early := sz.preludeSweeps - sz.resubmit
	err = loads(
		func() error {
			for i := 0; i < early; i += 2 {
				if err := b.streamPlan(ctx, conns[0], ph, plans[i], false, false); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for i := 1; i < early; i += 2 {
				if err := b.streamPlan(ctx, conns[1], ph, plans[i], false, false); err != nil {
					return err
				}
			}
			return nil
		},
	)
	if err != nil {
		return err
	}
	for i := early; i < sz.preludeSweeps; i++ {
		if err := b.streamPlan(ctx, conns[0], ph, plans[i], false, false); err != nil {
			return err
		}
	}
	if err := st.stop(); err != nil {
		return err
	}
	b.template, b.preludePlans, b.preludeChk = dir, plans, ph.chk
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
