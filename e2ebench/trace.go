package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	rescq "repro"
	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
)

// span is one timed call at a layer boundary. Spans of one configuration
// share its cache key as id; Parent names the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // job or configuration identity
	Start  int64  `json:"start_ns"`      // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; the benchmark writes them out at the end.
// A nil *tracer is the untraced run: every hook it hands out is nil, so
// the daemon is built exactly as cmd/rescqd builds it.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// entered maps a configuration key to the time its Runner call began,
	// returned to the time it returned (for queue wait and post-engine
	// latency, which end or start on the client side).
	entered  map[string]time.Time
	returned map[string]time.Time
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), entered: map[string]time.Time{}, returned: map[string]time.Time{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// record stores a finished span and returns its id.
func (t *tracer) record(name, key string, parent int64, start, end time.Time) int64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: t.ns(start), End: t.ns(end)})
	t.mu.Unlock()
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) entry(key string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.entered[key]
	return at, ok
}

func (t *tracer) exit(key string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.returned[key]
	return at, ok
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runner returns the service.Runner decorator for one daemon role, or nil
// (the real engine, undecorated) when untraced.
func (t *tracer) runner(role string) service.Runner {
	if t == nil {
		return nil
	}
	return &tracedRunner{inner: service.EngineRunner{}, tr: t, name: "engine." + role}
}

// handler returns the http.Handler wrapper for one daemon role, or nil.
func (t *tracer) handler(role string) func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	name := "http." + role
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			id := t.nextID.Add(1)
			h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
			end := time.Now()
			t.mu.Lock()
			t.spans = append(t.spans, span{ID: id, Name: name + " " + r.URL.Path, Start: t.ns(start), End: t.ns(end)})
			t.mu.Unlock()
		})
	}
}

// spanKey carries the enclosing HTTP request's span id into the Runner on
// a worker, whose engine calls run on the execute request's goroutine.
type spanKey struct{}

// tracedRunner times every engine call the daemon makes.
type tracedRunner struct {
	inner service.Runner
	tr    *tracer
	name  string
}

func (r *tracedRunner) Run(ctx context.Context, benchmark string, opts rescq.Options) (rescq.Summary, error) {
	key := rescq.CacheKey("bench:"+benchmark, opts)
	start := time.Now()
	r.tr.mu.Lock()
	r.tr.entered[key] = start
	r.tr.mu.Unlock()
	sum, err := r.inner.Run(ctx, benchmark, opts)
	end := time.Now()
	parent, _ := ctx.Value(spanKey{}).(int64)
	r.tr.record(r.name, key, parent, start, end)
	r.tr.mu.Lock()
	r.tr.returned[key] = end
	r.tr.mu.Unlock()
	return sum, err
}

func (r *tracedRunner) RunCircuitText(ctx context.Context, name, text string, opts rescq.Options) (rescq.Summary, error) {
	return r.inner.RunCircuitText(ctx, name, text, opts)
}

func (r *tracedRunner) Experiment(ctx context.Context, id string, quick bool) (string, error) {
	return r.inner.Experiment(ctx, id, quick)
}

// timedScheduler is a sim.Scheduler decorator that times the policy's
// callbacks, so engine time splits into scheduler and cycle advance.
type timedScheduler struct {
	inner               sim.Scheduler
	init, cycle, opDone time.Duration
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Init(st *sim.State) error {
	t := time.Now()
	err := s.inner.Init(st)
	s.init += time.Since(t)
	return err
}

func (s *timedScheduler) OnCycle(st *sim.State) {
	t := time.Now()
	s.inner.OnCycle(st)
	s.cycle += time.Since(t)
}

func (s *timedScheduler) OnOpDone(st *sim.State, op *sim.Op, success bool) {
	t := time.Now()
	s.inner.OnOpDone(st, op, success)
	s.opDone += time.Since(t)
}

// replayStats is what the traced engine replay measured.
type replayStats struct {
	configs, runs int
	circuit       time.Duration // qbench: build the benchmark circuit
	dag           time.Duration // circuit.NewDAG
	grid          time.Duration // lattice.Build, Clone and Compress
	engine        time.Duration // sched.New, sim.NewEngine and RunContext
	init          time.Duration
	cycle         map[string]time.Duration // OnCycle time per scheduler
	opDone        map[string]time.Duration // OnOpDone time per scheduler
	cycles        int64
	injections    int64
	injectFail    int64
	mallocs       uint64
	allocBytes    uint64
}

// replay re-runs each configuration through the engine's layers by direct
// calls — qbench, lattice.Build/Clone/Compress, circuit.NewDAG, sched.New
// under a timing decorator, sim.NewEngine/RunContext — exactly as
// rescq.Run composes them, serially on an otherwise idle process. Every
// run's total_cycles must equal what the daemon returned for it.
func replay(ctx context.Context, tr *tracer, specs []spec, daemonCycles func(spec) ([]int, error)) (*replayStats, error) {
	rs := &replayStats{cycle: map[string]time.Duration{}, opDone: map[string]time.Duration{}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, sp := range specs {
		want, err := daemonCycles(sp)
		if err != nil {
			return nil, err
		}
		got, err := replayOne(ctx, tr, sp, rs)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("replay of %s %s d=%d seed=%d: total_cycles %v, daemon returned %v",
				sp.bench, sp.opts.Scheduler, sp.opts.Distance, sp.opts.Seed, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	rs.mallocs = after.Mallocs - before.Mallocs
	rs.allocBytes = after.TotalAlloc - before.TotalAlloc
	return rs, nil
}

func replayOne(ctx context.Context, tr *tracer, sp spec, rs *replayStats) ([]int, error) {
	opts := sp.opts.Canonical()
	t := time.Now()
	qs, ok := qbench.ByName(sp.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", sp.bench)
	}
	c := qs.Circuit()
	rs.circuit += tr.lap("qbench.circuit", sp.key, &t)

	base, err := lattice.Build(opts.Layout, c.NumQubits, lattice.Params(opts.LayoutParams))
	if err != nil {
		return nil, err
	}
	rs.grid += tr.lap("lattice.build", sp.key, &t)
	cfg := sim.Config{Distance: opts.Distance, PhysError: opts.PhysError}
	var cycles []int
	for i := 0; i < opts.Runs; i++ {
		seed := opts.Seed + int64(i)
		g := base.Clone()
		if opts.Compression > 0 {
			g.Compress(opts.Compression, rand.New(rand.NewSource(opts.Seed+int64(i)*7919)))
		}
		rs.grid += tr.lap("lattice.clone", sp.key, &t)
		dag := circuit.NewDAG(c)
		rs.dag += tr.lap("circuit.dag", sp.key, &t)
		inner, err := sched.New(string(opts.Scheduler), sched.Params{K: opts.K, TauMST: opts.TauMST})
		if err != nil {
			return nil, err
		}
		ts := &timedScheduler{inner: inner}
		res, err := sim.NewEngine(g, dag, cfg, seed, ts).RunContext(ctx)
		if err != nil {
			return nil, err
		}
		rs.engine += tr.lap("sim.run", sp.key, &t)
		name := string(opts.Scheduler)
		rs.init += ts.init
		rs.cycle[name] += ts.cycle
		rs.opDone[name] += ts.opDone
		rs.cycles += int64(res.TotalCycles)
		rs.injections += int64(res.InjectionsStarted)
		rs.injectFail += int64(res.InjectionFailures)
		rs.runs++
		cycles = append(cycles, res.TotalCycles)
	}
	rs.configs++
	return cycles, nil
}

// lap records a span from *t to now, advances *t, and returns the span's
// duration.
func (t *tracer) lap(name, key string, at *time.Time) time.Duration {
	now := time.Now()
	t.record(name, key, 0, *at, now)
	d := now.Sub(*at)
	*at = now
	return d
}
