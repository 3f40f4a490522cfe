package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func medianOf(ds []time.Duration, unit time.Duration) float64 {
	return quantile(durations(ds, unit), 0.5)
}

func (ph *phase) wall() time.Duration { return ph.end.Sub(ph.start) }

// endToEndMetrics are what a user of the daemon sees, from one pass.
func endToEndMetrics(ph *phase) map[string]metric {
	var lat, inter []time.Duration
	for _, l := range ph.lines {
		lat = append(lat, l.lat)
	}
	for _, r := range ph.interactive {
		inter = append(inter, r.lat)
	}
	ok := 0.0
	if a := ph.chk.attempted; a > 0 {
		ok = float64(a-ph.chk.failed) / float64(a)
	}
	ms := time.Millisecond
	return map[string]metric{
		"configs_per_s":         {ph.throughput(), "1/s"},
		"result_p50_ms":         {quantile(durations(lat, ms), 0.5), "ms"},
		"result_p90_ms":         {quantile(durations(lat, ms), 0.9), "ms"},
		"interactive_p50_ms":    {quantile(durations(inter, ms), 0.5), "ms"},
		"interactive_p90_ms":    {quantile(durations(inter, ms), 0.9), "ms"},
		"query_p50_ms":          {medianOf(ph.queryRounds, ms), "ms"},
		"setup_s":               {medianOf(ph.setups, time.Second), "s"},
		"ok_frac":               {ok, "ratio"},
		"peak_rss_mb":           {ph.peakRSSMB, "MB"},
		"sim_speedup_vs_greedy": {ph.speedup, "x"},
	}
}

// throughput is the median over the window's blocks (see blocks) of the
// results received in the block, on every connection, per second of it.
// Blocks of many sweeps span the daemon's periodic work (WAL compaction,
// analytics snapshots) alike, and a passing slowdown of the machine moves
// the median less than the mean.
func (ph *phase) throughput() float64 {
	var done []time.Time
	for _, l := range ph.lines {
		done = append(done, l.at)
	}
	if ph.interactiveInWindow() {
		for _, r := range ph.interactive {
			done = append(done, r.posted.Add(r.lat))
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rates []float64
	first := 0
	for _, end := range blocks(len(ph.sweeps)) {
		from, to := ph.sweeps[first][0], ph.sweeps[end-1][1]
		first = end
		lo := sort.Search(len(done), func(i int) bool { return !done[i].Before(from) })
		hi := sort.Search(len(done), func(i int) bool { return done[i].After(to) })
		rates = append(rates, float64(hi-lo)/to.Sub(from).Seconds())
	}
	return quantile(rates, 0.5)
}

// interactiveInWindow reports whether the interactive requests are
// tenants_mixed's interactive tenant rather than the probe.
func (ph *phase) interactiveInWindow() bool {
	return len(ph.interactive) > 0 && !ph.interactive[0].probe
}

// active is the measured part of the window in tracer time: connection
// 1's sweeps, without the probe gaps between them.
func (ph *phase) active(tr *tracer) [][2]int64 {
	out := make([][2]int64, len(ph.sweeps))
	for i, sw := range ph.sweeps {
		out[i] = [2]int64{tr.ns(sw[0]), tr.ns(sw[1])}
	}
	return out
}

// seconds is the total length of ivs.
func seconds(ivs [][2]int64) float64 {
	var ns int64
	for _, iv := range ivs {
		ns += iv[1] - iv[0]
	}
	return float64(ns) / 1e9
}

// clip is the part of span s inside ivs, in seconds.
func clip(ivs [][2]int64, s span) float64 {
	var ns int64
	for _, iv := range ivs {
		if lo, hi := max(s.Start, iv[0]), min(s.End, iv[1]); hi > lo {
			ns += hi - lo
		}
	}
	return float64(ns) / 1e9
}

// within reports whether span s starts inside ivs.
func within(ivs [][2]int64, s span) bool {
	for _, iv := range ivs {
		if s.Start >= iv[0] && s.Start < iv[1] {
			return true
		}
	}
	return false
}

// union is the time inside ivs covered by at least one span, in seconds.
func union(ivs [][2]int64, spans []span) float64 {
	var parts [][2]int64
	for _, s := range spans {
		for _, iv := range ivs {
			if lo, hi := max(s.Start, iv[0]), min(s.End, iv[1]); hi > lo {
				parts = append(parts, [2]int64{lo, hi})
			}
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
	var total int64
	for i := 0; i < len(parts); {
		lo, hi := parts[i][0], parts[i][1]
		for i++; i < len(parts) && parts[i][0] <= hi; i++ {
			hi = max(hi, parts[i][1])
		}
		total += hi - lo
	}
	return float64(total) / 1e9
}

// promDelta is how far a daemon counter moved during the window's blocks.
func (ph *phase) promDelta(name string) float64 {
	return ph.promEnd[name] - ph.promStart[name] - ph.inGaps[name]
}

// perLayerMetrics are the traced pass's split of the work across layers.
func perLayerMetrics(ph *phase, tr *tracer) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	act := ph.active(tr)
	wall := seconds(act)
	ms := time.Millisecond

	// engine: every Runner call the daemons made during the sweeps.
	engine := append(tr.named("engine.front"), tr.named("engine.worker")...)
	var busy float64
	var configMS []float64
	calls := 0
	for _, s := range engine {
		busy += clip(act, s)
		if within(act, s) {
			calls++
			configMS = append(configMS, float64(s.dur())/float64(ms))
		}
	}
	put("engine.calls", float64(calls), "count")
	put("engine.busy_s", busy, "s")
	put("engine.config_ms", quantile(configMS, 0.5), "ms")
	put("engine.concurrency", ratio(busy, wall), "ratio")
	put("engine.share", ratio(union(act, engine), wall), "ratio")

	// qbench, circuit, lattice, sched, sim, rus: the traced engine replay.
	rs := ph.replay
	if rs == nil {
		rs = &replayStats{cycle: map[string]time.Duration{}, opDone: map[string]time.Duration{}}
	}
	cfgs, runs := float64(rs.configs), float64(rs.runs)
	put("qbench.circuit_ms", ratio(float64(rs.circuit)/float64(ms), cfgs), "ms")
	put("circuit.dag_ms", ratio(float64(rs.dag)/float64(ms), runs), "ms")
	put("lattice.grid_ms", ratio(float64(rs.grid)/float64(ms), cfgs), "ms")
	var schedTotal time.Duration
	for _, name := range allSchedulers {
		put("sched.cycle_s."+name, rs.cycle[name].Seconds(), "s")
		put("sched.opdone_s."+name, rs.opDone[name].Seconds(), "s")
		schedTotal += rs.cycle[name] + rs.opDone[name]
	}
	put("sched.init_ms", ratio(float64(rs.init)/float64(ms), runs), "ms")
	put("sim.advance_s", (rs.engine - schedTotal - rs.init).Seconds(), "s")
	put("sim.cycles", float64(rs.cycles), "count")
	put("sim.host_ns_per_cycle", ratio(float64(rs.engine), float64(rs.cycles)), "ns")
	put("engine.allocs_per_config", ratio(float64(rs.mallocs), cfgs), "count")
	put("engine.bytes_per_config", ratio(float64(rs.allocBytes), cfgs), "B")
	put("rus.injection_success_ratio", ratio(float64(rs.injections-rs.injectFail), float64(rs.injections)), "ratio")

	// service: the serving path around the engine.
	put("service.submit_ms", medianOf(ph.submits, ms), "ms")
	put("service.cached_config_us", medianOf(ph.lineGaps, time.Microsecond), "us")
	var post []float64
	for _, l := range ph.lines {
		if ret, ok := tr.exit(l.sp.key); ok && l.at.After(ret) {
			post = append(post, float64(l.at.Sub(ret))/float64(ms))
		}
	}
	put("service.post_engine_p50_ms", quantile(post, 0.5), "ms")
	put("service.post_engine_p90_ms", quantile(post, 0.9), "ms")
	put("service.attach_s", medianOf(ph.attaches, time.Second), "s")

	// store and analytics, from the daemon's own counters.
	appends := ph.promDelta("rescqd_store_appends_total")
	put("store.replay_s", medianOf(ph.storeReplay, time.Second), "s")
	put("store.appends", appends, "count")
	put("store.bytes_per_record", ratio(ph.promDelta("rescqd_store_append_bytes_total"), appends), "B")
	put("store.compactions", ph.promDelta("rescqd_store_compactions_total"), "count")
	for _, kind := range []string{"groupby", "pareto", "sensitivity"} {
		put("analytics.query_ms."+kind, medianOf(ph.queries[kind], ms), "ms")
	}
	put("analytics.groups", ph.promEnd["rescqd_analytics_groups"], "count")
	put("analytics.ingested", ph.promDelta("rescqd_analytics_results_ingested_total"), "count")

	hits, misses := ph.promDelta("rescqd_cache_hits_total"), ph.promDelta("rescqd_cache_misses_total")
	put("cache.hit_ratio", ratio(hits, hits+misses), "ratio")

	// schedq: how long interactive requests waited for a worker slot.
	var waits []float64
	if ph.interactiveInWindow() {
		for _, r := range ph.interactive {
			if in, ok := tr.entry(r.sp.key); ok && in.After(r.posted) {
				waits = append(waits, float64(in.Sub(r.posted))/float64(ms))
			}
		}
	}
	put("schedq.interactive_wait_p90_ms", quantile(waits, 0.9), "ms")
	put("schedq.preemptions", ph.promDelta("rescqd_jobs_preempted_total"), "count")

	// cluster: the worker's execute requests and the engine calls in them.
	var batches []span
	for _, s := range tr.named("http.worker /internal/v1/execute") {
		if within(act, s) {
			batches = append(batches, s)
		}
	}
	inBatch := map[int64]time.Duration{}
	workerCalls := 0
	var workerBusy float64
	for _, s := range tr.named("engine.worker") {
		workerBusy += clip(act, s)
		if within(act, s) {
			inBatch[s.Parent] += s.dur()
			workerCalls++
		}
	}
	var execMS, overMS, gapMS []float64
	sort.Slice(batches, func(i, j int) bool { return batches[i].Start < batches[j].Start })
	for i, s := range batches {
		execMS = append(execMS, float64(s.dur())/float64(ms))
		overMS = append(overMS, float64(s.dur()-inBatch[s.ID])/float64(ms))
		// The gap before a batch: since the latest earlier batch ended.
		var prevEnd int64 = -1
		for _, p := range batches[:i] {
			if p.End <= s.Start && p.End > prevEnd {
				prevEnd = p.End
			}
		}
		if prevEnd >= 0 {
			gapMS = append(gapMS, float64(s.Start-prevEnd)/1e6)
		}
	}
	put("cluster.batches", float64(len(batches)), "count")
	put("cluster.configs_per_batch", ratio(float64(workerCalls), float64(len(batches))), "count")
	put("cluster.execute_ms", quantile(execMS, 0.5), "ms")
	put("cluster.worker_overhead_ms", quantile(overMS, 0.5), "ms")
	put("cluster.dispatch_gap_ms", quantile(gapMS, 0.5), "ms")
	put("cluster.worker_concurrency", ratio(workerBusy, wall), "ratio")

	put("metrics.scrape_ms", medianOf(ph.scrapes, ms), "ms")
	return m
}

// notes are the sample counts and shares printed with the metrics.
func (ph *phase) notes() []string {
	kind := "untraced"
	if ph.tr != nil {
		kind = "traced"
	}
	out := []string{
		fmt.Sprintf("%s pass: window %.3fs, %d result lines, %d interactive replies, %d queries, %d scrapes, %d set-ups %v",
			kind, ph.wall().Seconds(), len(ph.lines), len(ph.interactive), countAll(ph.queries), len(ph.scrapes),
			len(ph.setups), roundAll(ph.setups)),
		fmt.Sprintf("%s pass: result p90 has %d samples above it; interactive p90 has %d; speed-up over %d cells",
			kind, len(ph.lines)/10, len(ph.interactive)/10, ph.speedupCells),
		fmt.Sprintf("%s pass: %d attempted, %d failed", kind, ph.chk.attempted, ph.chk.failed),
		fmt.Sprintf("%s pass: %d sweeps on connection 1, durations %v", kind, len(ph.sweeps), sweepDurations(ph.sweeps)),
		fmt.Sprintf("%s pass: the hypervisor stole %.1f%% of the machine's CPU time during the window (timings are not comparable across runs with very different shares)",
			kind, stolenPercent(ph.cpuStart, ph.cpuEnd)),
	}
	return out
}

func stolenPercent(start, end [2]uint64) float64 {
	if end[0] <= start[0] {
		return 0
	}
	return 100 * float64(end[1]-start[1]) / float64(end[0]-start[0])
}

func sweepDurations(sweeps [][2]time.Time) []time.Duration {
	var out []time.Duration
	for i, sw := range sweeps {
		if i == 20 {
			break
		}
		out = append(out, sw[1].Sub(sw[0]).Round(time.Millisecond))
	}
	return out
}

func countAll(m map[string][]time.Duration) int {
	n := 0
	for _, v := range m {
		n += len(v)
	}
	return n
}

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(10 * time.Microsecond)
	}
	return out
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (Linux;
// elsewhere the mark covers the whole process).
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTicks reads the machine's CPU time from /proc/stat in clock ticks:
// the total and the part a hypervisor stole from the guest (zero where
// the file is absent).
func cpuTicks() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t [2]uint64
	if len(fields) < 9 || fields[0] != "cpu" {
		return t
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t[0] += v
		if i == 7 {
			t[1] = v
		}
	}
	return t
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// machineStamp names the hardware and toolchain next to every result.
func machineStamp() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
