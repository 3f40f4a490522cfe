package metrics

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServiceStatsCountersAndPercentiles(t *testing.T) {
	s := NewServiceStats()
	if p50, p99 := s.LatencyPercentiles(); p50 != 0 || p99 != 0 {
		t.Fatalf("empty percentiles = %d/%d", p50, p99)
	}
	s.JobsQueued.Add(3)
	s.JobsDone.Add(2)
	s.CacheHits.Add(1)
	s.CacheMisses.Add(1)
	for ms := 1; ms <= 100; ms++ {
		s.ObserveLatency(time.Duration(ms) * time.Millisecond)
	}
	s.ObserveLatency(-time.Second) // clock weirdness clamps to 0

	if s.JobsQueued.Load() != 3 || s.JobsDone.Load() != 2 || s.CacheHits.Load() != 1 {
		t.Fatalf("counters queued=%d done=%d hits=%d", s.JobsQueued.Load(), s.JobsDone.Load(), s.CacheHits.Load())
	}
	n, p50, p99 := s.quantiles(s.latency)
	if n != 101 {
		t.Fatalf("latency count = %d, want 101", n)
	}
	if p50 < 49 || p50 > 51 {
		t.Fatalf("p50 = %d, want ~50", p50)
	}
	if p99 < 98 || p99 > 100 {
		t.Fatalf("p99 = %d, want ~99", p99)
	}
}

func TestServiceStatsConcurrent(t *testing.T) {
	s := NewServiceStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.JobsQueued.Add(1)
				s.ObserveLatency(time.Millisecond)
				s.Registry().WriteText(io.Discard)
			}
		}()
	}
	wg.Wait()
	if n, _, _ := s.quantiles(s.latency); s.JobsQueued.Load() != 800 || n != 800 {
		t.Fatalf("after concurrent updates: queued=%d latency count=%d, want 800/800", s.JobsQueued.Load(), n)
	}
}

// renderText is the stats' registry rendered as one /metrics page.
func renderText(t *testing.T, s *ServiceStats) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestServiceStatsWriteText(t *testing.T) {
	s := NewServiceStats()
	s.JobsDone.Add(5)
	s.CacheHits.Add(2)
	s.JobsShed.Add(3)
	s.Coalesced.Add(4)
	s.ReplayedJobs.Add(1)
	s.ReplayedResults.Add(7)
	s.BatchesDispatched.Add(6)
	s.BatchesRedispatched.Add(2)
	s.RemoteConfigs.Add(24)
	s.HeartbeatsReceived.Add(9)
	s.WorkerExpiries.Add(1)
	s.ObserveLatency(40 * time.Millisecond)
	text := renderText(t, s)
	for _, want := range []string{
		"rescqd_cluster_batches_dispatched_total 6",
		"rescqd_cluster_batches_redispatched_total 2",
		"rescqd_cluster_remote_configs_total 24",
		"rescqd_cluster_heartbeats_total 9",
		"rescqd_cluster_worker_expiries_total 1",
		"# TYPE rescqd_jobs_done_total counter",
		"rescqd_jobs_done_total 5",
		"rescqd_cache_hits_total 2",
		"rescqd_jobs_shed_total 3",
		"rescqd_coalesced_total 4",
		"rescqd_replayed_jobs_total 1",
		"rescqd_replayed_results_total 7",
		"rescqd_store_errors_total 0",
		"# TYPE rescqd_jobs_running gauge",
		`rescqd_job_latency_ms{quantile="0.5"} 40`,
		`rescqd_job_latency_ms{quantile="0.99"} 40`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServiceStatsWriteTextDurabilityCounters: the replay, coalesce, shed
// and cluster counters render even while zero.
func TestServiceStatsWriteTextDurabilityCounters(t *testing.T) {
	s := NewServiceStats()
	s.JobsShed.Add(2)
	s.Coalesced.Add(3)
	s.ReplayedJobs.Add(1)
	s.BatchesRedispatched.Add(4)
	text := renderText(t, s)
	for _, want := range []string{"rescqd_jobs_shed_total 2", "rescqd_coalesced_total 3", "rescqd_replayed_jobs_total 1",
		"rescqd_replayed_results_total 0", "rescqd_store_errors_total 0", "rescqd_cluster_batches_dispatched_total 0",
		"rescqd_cluster_batches_redispatched_total 4", "rescqd_cluster_remote_configs_total 0",
		"rescqd_cluster_heartbeats_total 0", "rescqd_cluster_worker_expiries_total 0"} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("rendered metrics missing %q:\n%s", want, text)
		}
	}
}
