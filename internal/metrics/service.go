package metrics

import (
	"sync"
	"time"
)

// ServiceStats is the rescqd daemon's counter set — job lifecycle counts,
// result-cache effectiveness, durability and cluster counters — plus the
// exact-millisecond latency histograms behind the p50/p99 lines. Every
// counter is declared, with its family name and help text, in the stats'
// Registry, which is what /metrics renders. All methods are safe for
// concurrent use; the counters are atomics so the serving hot path never
// takes a lock, and only latency observation shares a mutex.
type ServiceStats struct {
	reg *Registry

	JobsQueued    Int
	JobsRunning   Int
	JobsDone      Int
	JobsFailed    Int
	JobsCancelled Int
	JobsRejected  Int
	JobsShed      Int
	JobsPreempted Int
	CacheHits     Int
	CacheMisses   Int
	EngineRuns    Int
	Coalesced     Int

	ReplayedJobs    Int
	ReplayedResults Int
	StoreErrors     Int

	// Degraded-durability counters: a WAL failure flips the daemon into a
	// non-durable "lossy" mode instead of failing submissions; a periodic
	// probe re-attaches the store when the disk heals.
	DurabilityLost     Int
	DurabilityRestored Int
	LossyWrites        Int

	// Cluster counters (coordinator side; zero in standalone mode).
	BatchesDispatched   Int
	BatchesRedispatched Int
	BatchesHedged       Int
	DispatchRetries     Int
	BreakerOpens        Int
	RemoteConfigs       Int
	HeartbeatsReceived  Int
	WorkerExpiries      Int
	WorkersDrained      Int

	// Wire counters (coordinator side): batches that went out on the
	// binary wire, and the bytes that actually crossed it
	// (post-compression), per direction. Each is the codec="binary"
	// series of its family.
	WireBinaryBatches  *Int
	WireBinaryBytesOut *Int
	WireBinaryBytesIn  *Int

	tenantQueued, tenantRunning, tenantDone, tenantShed, tenantPreempted *IntVec

	mu            sync.Mutex
	latency       *Histogram // completed-job latency in milliseconds
	configLatency *Histogram // per-configuration execution latency in milliseconds
}

// TenantCounters is one tenant's slice of the job-lifecycle counters, fed
// by the service alongside the global set and rendered as the
// tenant-labeled series. Tenant cardinality is bounded by the scheduler's
// own tenant-table cap.
type TenantCounters struct {
	Queued    *Int // jobs accepted for this tenant, lifetime total
	Running   *Int // this tenant's jobs currently executing (gauge)
	Done      *Int // this tenant's jobs reaching a terminal state
	Shed      *Int // submissions shed by this tenant's quota (429)
	Preempted *Int // times this tenant's running jobs were preempted
}

// Tenant returns the named tenant's counter set. The first call for a
// tenant creates all five series, so a touched tenant appears in every
// per-tenant family.
func (s *ServiceStats) Tenant(name string) TenantCounters {
	return TenantCounters{
		Queued:    s.tenantQueued.With(name),
		Running:   s.tenantRunning.With(name),
		Done:      s.tenantDone.With(name),
		Shed:      s.tenantShed.With(name),
		Preempted: s.tenantPreempted.With(name),
	}
}

// NewServiceStats returns a zeroed counter set declared into a fresh
// registry.
func NewServiceStats() *ServiceStats {
	r := &Registry{}
	s := &ServiceStats{reg: r, latency: NewHistogram(), configLatency: NewHistogram()}
	r.Int(&s.JobsQueued, Counter, "rescqd_jobs_queued_total", "Jobs accepted and enqueued.")
	r.Int(&s.JobsRunning, Gauge, "rescqd_jobs_running", "Jobs currently executing.")
	r.Int(&s.JobsDone, Counter, "rescqd_jobs_done_total", "Jobs finished successfully.")
	r.Int(&s.JobsFailed, Counter, "rescqd_jobs_failed_total", "Jobs finished with an error.")
	r.Int(&s.JobsCancelled, Counter, "rescqd_jobs_cancelled_total", "Jobs cancelled before completion.")
	r.Int(&s.JobsRejected, Counter, "rescqd_jobs_rejected_total", "Jobs refused (queue full or draining).")
	r.Int(&s.JobsShed, Counter, "rescqd_jobs_shed_total", "Submissions shed by admission control (429).")
	r.Int(&s.JobsPreempted, Counter, "rescqd_jobs_preempted_total", "Running jobs checkpointed and requeued by the scheduler.")
	r.Int(&s.CacheHits, Counter, "rescqd_cache_hits_total", "Run configurations served from the result cache.")
	r.Int(&s.CacheMisses, Counter, "rescqd_cache_misses_total", "Run configurations that had to simulate.")
	r.Int(&s.EngineRuns, Counter, "rescqd_engine_runs_total", "Engine invocations.")
	r.Int(&s.Coalesced, Counter, "rescqd_coalesced_total", "Configurations that waited on an identical in-flight run.")

	r.Int(&s.ReplayedJobs, Counter, "rescqd_replayed_jobs_total", "Jobs reconstructed from the WAL at startup.")
	r.Int(&s.ReplayedResults, Counter, "rescqd_replayed_results_total", "Completed configurations replayed from the WAL.")
	r.Int(&s.StoreErrors, Counter, "rescqd_store_errors_total", "WAL append/close failures.")
	r.Int(&s.DurabilityLost, Counter, "rescqd_durability_lost_total", "Times the daemon degraded to non-durable (lossy) mode.")
	r.Int(&s.DurabilityRestored, Counter, "rescqd_durability_restored_total", "Times the durability probe restored the WAL.")
	r.Int(&s.LossyWrites, Counter, "rescqd_lossy_writes_total", "WAL records skipped while in lossy mode.")

	r.Int(&s.BatchesDispatched, Counter, "rescqd_cluster_batches_dispatched_total", "Batches dispatched to cluster workers.")
	r.Int(&s.BatchesRedispatched, Counter, "rescqd_cluster_batches_redispatched_total", "Batches re-dispatched after a worker died or errored.")
	r.Int(&s.BatchesHedged, Counter, "rescqd_cluster_batches_hedged_total", "Hedge batches raced against straggling workers.")
	r.Int(&s.DispatchRetries, Counter, "rescqd_cluster_dispatch_retries_total", "Dispatch attempts retried after a failure.")
	r.Int(&s.BreakerOpens, Counter, "rescqd_cluster_breaker_opens_total", "Per-worker circuit breakers opened.")
	r.Int(&s.RemoteConfigs, Counter, "rescqd_cluster_remote_configs_total", "Configurations executed by cluster workers.")
	r.Int(&s.HeartbeatsReceived, Counter, "rescqd_cluster_heartbeats_total", "Worker register/heartbeat requests accepted.")
	r.Int(&s.WorkerExpiries, Counter, "rescqd_cluster_worker_expiries_total", "Workers expired by the liveness sweeper.")
	r.Int(&s.WorkersDrained, Counter, "rescqd_cluster_workers_drained_total", "Draining workers released after their last in-flight batch.")

	// The wire series keep their codec label (now always "binary") so
	// existing dashboards and scrapers match unchanged.
	s.WireBinaryBatches = r.IntVec(Counter, "rescqd_cluster_wire_batches_total", "Batches dispatched over the binary wire.", "codec").With("binary")
	s.WireBinaryBytesOut = r.IntVec(Counter, "rescqd_cluster_wire_bytes_out_total", "Dispatch request bytes on the wire (post-compression).", "codec").With("binary")
	s.WireBinaryBytesIn = r.IntVec(Counter, "rescqd_cluster_wire_bytes_in_total", "Dispatch response bytes on the wire (post-compression).", "codec").With("binary")

	s.histogramFamilies(s.latency,
		"rescqd_job_latency_observations_total", "Completed jobs with recorded latency.",
		"rescqd_job_latency_ms", "Completed-job latency quantiles in milliseconds.")
	s.histogramFamilies(s.configLatency,
		"rescqd_config_latency_observations_total", "Configurations with recorded execution latency.",
		"rescqd_config_latency_ms", "Per-configuration latency quantiles in milliseconds.")
	s.tenantQueued = r.IntVec(Counter, "rescqd_tenant_jobs_queued_total", "Jobs accepted, by tenant.", "tenant")
	s.tenantRunning = r.IntVec(Gauge, "rescqd_tenant_jobs_running", "Jobs currently executing, by tenant.", "tenant")
	s.tenantDone = r.IntVec(Counter, "rescqd_tenant_jobs_done_total", "Jobs reaching a terminal state, by tenant.", "tenant")
	s.tenantShed = r.IntVec(Counter, "rescqd_tenant_jobs_shed_total", "Submissions shed by tenant quota (429), by tenant.", "tenant")
	s.tenantPreempted = r.IntVec(Counter, "rescqd_tenant_jobs_preempted_total", "Preemptions of running jobs, by tenant.", "tenant")
	return s
}

// histogramFamilies declares one latency histogram's observation counter
// and its p50/p99 summary.
func (s *ServiceStats) histogramFamilies(h *Histogram, countName, countHelp, quantileName, quantileHelp string) {
	s.reg.Func(Counter, countName, countHelp, "", func(emit func(string, float64)) {
		s.mu.Lock()
		n := h.N()
		s.mu.Unlock()
		emit("", float64(n))
	})
	s.reg.Func(Summary, quantileName, quantileHelp, "quantile", func(emit func(string, float64)) {
		_, p50, p99 := s.quantiles(h)
		emit("0.5", float64(p50))
		emit("0.99", float64(p99))
	})
}

// Registry returns the registry the counters are declared in; the daemon
// declares its scrape-time families into it and renders it on /metrics.
func (s *ServiceStats) Registry() *Registry { return s.reg }

// ObserveLatency records one completed job's wall-clock latency.
func (s *ServiceStats) ObserveLatency(d time.Duration) { s.observe(s.latency, d) }

// LatencyPercentiles returns the p50 and p99 completed-job latencies in
// milliseconds (0, 0 before any job completes).
func (s *ServiceStats) LatencyPercentiles() (p50, p99 int) {
	_, p50, p99 = s.quantiles(s.latency)
	return p50, p99
}

// ObserveConfigLatency records one configuration's execution latency —
// local engine runs directly, remote batches as round-trip ÷ batch size.
// This is the distribution batch deadlines and hedge delays are derived
// from.
func (s *ServiceStats) ObserveConfigLatency(d time.Duration) { s.observe(s.configLatency, d) }

// ConfigLatency returns the per-configuration latency sample count and its
// p50 and p99 in milliseconds. The p50 sizes adaptive dispatch batches, the
// p99 derives batch deadlines and hedge delays. Callers must check n
// themselves: percentiles from a handful of samples are noise, not a
// distribution.
func (s *ServiceStats) ConfigLatency() (n, p50ms, p99ms int) { return s.quantiles(s.configLatency) }

// observe records d in whole milliseconds, clamping clock weirdness to 0.
func (s *ServiceStats) observe(h *Histogram, d time.Duration) {
	s.mu.Lock()
	h.Add(max(int(d.Milliseconds()), 0))
	s.mu.Unlock()
}

// quantiles returns h's sample count and its p50 and p99 (zeros when h
// is empty).
func (s *ServiceStats) quantiles(h *Histogram) (n, p50, p99 int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n = h.N(); n == 0 {
		return 0, 0, 0
	}
	return n, h.Percentile(0.50), h.Percentile(0.99)
}
