package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/fault"
)

// This file wires the horizontal scale-out layer (internal/cluster) into
// the server. In coordinator mode the public API, WAL, admission control
// and result cache stay exactly as in standalone mode, but a job's
// configurations are sharded into batches and dispatched over HTTP to
// registered workers: least-loaded worker first (ties broken by smallest
// worker id), at most one batch per free worker slot, batches from dead
// workers re-dispatched to survivors, and every returned configuration
// checkpointed to the WAL in index order — so streaming, resume and
// kill-restart semantics are byte-identical to a standalone run. With no
// live workers the coordinator falls back to its local pool. In worker
// mode the daemon serves POST /internal/v1/execute and keeps itself
// registered with the coordinator via heartbeats.

// clusterState holds a clustered server's scale-out machinery; nil on a
// standalone server.
type clusterState struct {
	cfg      config.Cluster
	registry *cluster.Registry // coordinator only
	client   *cluster.Client   // coordinator only
}

// newClusterState builds the mode-appropriate cluster machinery. Resilience
// knobs left zero (hand-built test configs) take their WithDefaults values.
func newClusterState(cfg config.Cluster) *clusterState {
	if !cfg.Clustered() {
		return nil
	}
	cfg = cfg.WithDefaults()
	cs := &clusterState{cfg: cfg}
	if cfg.Mode == config.ModeCoordinator {
		cs.registry = cluster.NewRegistry()
		cs.registry.SetBreaker(cfg.BreakerFailures, cfg.BreakerCooldown())
		cs.client = cluster.NewTunedClient(cluster.ClientOptions{
			DialTimeout:     cfg.DialTimeout(),
			IdleConnTimeout: cfg.IdleConnTimeout(),
		})
	}
	return cs
}

// ClusterWorkers returns the coordinator's current worker view (empty
// snapshot and false on non-coordinators), for /healthz, /metrics and
// tests.
func (s *Server) ClusterWorkers() ([]cluster.WorkerInfo, bool) {
	if s.clust == nil || s.clust.registry == nil {
		return nil, false
	}
	return s.clust.registry.Snapshot(), true
}

// expirySweeper evicts workers that missed their liveness window. It runs
// on the coordinator at the heartbeat cadence until baseCtx ends.
func (s *Server) expirySweeper() {
	t := time.NewTicker(s.clust.cfg.HeartbeatInterval())
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			expired := s.clust.registry.ExpireDead(s.clust.cfg.LivenessExpiry())
			s.stats.WorkerExpiries.Add(int64(len(expired)))
		}
	}
}

// handleRegister is the coordinator's membership endpoint: a worker's
// first POST registers it, every subsequent POST is a heartbeat renewing
// its liveness lease. A malformed identity (see RegisterRequest.Validate)
// or a worker that cannot speak the binary wire (a build from before it
// was the only one) is refused with a 400, and never joins the registry.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: %w", err))
		return
	}
	if !slices.Contains(req.Codecs, cluster.CodecBinary) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: worker %s advertised codecs %q; this coordinator dispatches only %q",
			req.ID, req.Codecs, cluster.CodecBinary))
		return
	}
	st := s.clust.registry.Upsert(req)
	s.stats.HeartbeatsReceived.Add(1)
	if st.Drained {
		s.stats.WorkersDrained.Add(1)
	}
	writeJSON(w, http.StatusOK, cluster.RegisterResponse{
		ExpiresInMS: s.clust.cfg.LivenessExpiry().Milliseconds(),
		Workers:     s.clust.registry.Len(),
		Released:    st.Released,
	})
}

// handleDrain is the worker's retirement endpoint: an autoscaler (or
// operator) POSTs to it and from then on the worker rejects new batches
// with 503 (the coordinator re-dispatches them elsewhere), announces the
// drain on every heartbeat, and exits its heartbeat loop once the
// coordinator confirms its last in-flight batch finished and releases it.
// Idempotent: draining a draining worker re-acknowledges.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.workerDraining.Store(true)
	writeJSON(w, http.StatusOK, cluster.DrainResponse{
		Draining: true,
		Inflight: int(s.execInflight.Load()),
	})
}

// WorkerDraining reports whether this worker has been asked to retire
// (POST /internal/v1/drain). It is what the heartbeater samples to
// announce the drain to the coordinator.
func (s *Server) WorkerDraining() bool { return s.workerDraining.Load() }

// scaleSignal is the autoscaler-facing pressure estimate: the admitted
// backlog in estimated milliseconds of work (pending configurations × the
// observed per-configuration p50, floored at 1ms so a cold histogram still
// reflects queue depth) and the live, non-draining capacity slots it
// spreads over. perSlotMS is the headline gauge: ≫ batch_target_ms means
// add workers; ≈ 0 with idle slots means it is safe to drain some.
func (s *Server) scaleSignal() (backlogMS, slots int64, perSlotMS float64) {
	_, p50, _ := s.stats.ConfigLatency()
	backlogMS = s.pending.Load() * int64(max(p50, 1))
	if s.clust != nil && s.clust.registry != nil {
		n, _ := s.clust.registry.Capacity()
		slots = int64(n)
	}
	return backlogMS, slots, float64(backlogMS) / float64(max(slots, 1))
}

// handleExecute is the worker's dispatch endpoint: it decodes a batch of
// run specifications (strictly — this is the worker's trust boundary),
// executes them in order on the request goroutine, and returns one result
// per configuration. Batch concurrency is the coordinator's job (one
// in-flight batch per acquired worker slot); within a batch,
// configurations run sequentially like a standalone sweep.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	// Chaos hook: an injected delay stalls this worker like an overloaded
	// node (exercising the coordinator's deadline and hedging paths); an
	// injected error becomes the 500 a crashing worker would produce.
	if err := fault.Check(cluster.FaultExecute); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// A draining worker takes no new batches; 503 is retryable, so the
	// coordinator re-dispatches elsewhere. In-flight batches (already past
	// this gate) run to completion — that is the point of draining.
	if s.workerDraining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("service: worker draining"))
		return
	}
	s.execInflight.Add(1)
	defer s.execInflight.Add(-1)
	req, err := cluster.DecodeExecuteRequestAuto(
		http.MaxBytesReader(w, r.Body, cluster.MaxExecuteBody),
		r.Header.Get("Content-Type"), r.Header.Get("Content-Encoding"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	specs := make([]runSpec, len(req.Configs))
	for i, c := range req.Configs {
		if err := json.Unmarshal(c.Spec, &specs[i]); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad spec %d: %w", i, err))
			return
		}
	}
	resp := cluster.ExecuteResponse{Results: make([]json.RawMessage, 0, len(specs))}
	for i, spec := range specs {
		if r.Context().Err() != nil {
			// The coordinator hung up (job cancelled, or it re-dispatched
			// after deciding this worker is dead); stop burning engine time.
			// Say so explicitly: a bare return here wrote an empty 200, which
			// a coordinator still listening (a proxy hiccup cancelled us, not
			// the dispatcher) would misread as a zero-result success.
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("service: batch abandoned %d/%d: %w", i, len(specs), r.Context().Err()))
			return
		}
		res := s.runOne(r.Context(), spec)
		res.Index = req.Configs[i].Index
		data, err := json.Marshal(res)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: encode result %d: %w", i, err))
			return
		}
		resp.Results = append(resp.Results, data)
	}
	body := cluster.EncodeExecuteResponseBinary(resp)
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		if gz, ok := cluster.MaybeGzip(body); ok {
			body = gz
			w.Header().Set("Content-Encoding", "gzip")
		}
	}
	w.Header().Set("Content-Type", cluster.BinaryContentType)
	w.Write(body)
}

// dispatchable reports whether a job should go through the sharded
// cluster path: coordinator mode with at least one live worker. Evaluated
// per job, so a coordinator whose workers all died simply falls back to
// its local pool for the next job.
func (s *Server) dispatchable() bool {
	return s.clust != nil && s.clust.registry != nil && s.clust.registry.Len() > 0
}

// sequencer releases out-of-order batch results in strict index order:
// results are buffered until their index is next, then appended to the
// job, checkpointed to the WAL, and published to the events stream —
// exactly the order a standalone run produces, which is what keeps
// streaming output, resume prefixes and the WAL byte-identical across the
// two paths.
type sequencer struct {
	mu    sync.Mutex
	s     *Server
	j     *Job
	next  int
	ready map[int]ConfigResult
}

func (q *sequencer) deliver(idx int, res ConfigResult) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// First result wins. Hedged re-dispatch can legitimately complete the
	// same index twice (the straggler and its hedge both finish); a released
	// or buffered index must be dropped here, or the job would append the
	// configuration twice and decrement its pending backlog twice.
	if idx < q.next {
		return
	}
	if _, dup := q.ready[idx]; dup {
		return
	}
	q.ready[idx] = res
	for {
		r, ok := q.ready[q.next]
		if !ok {
			return
		}
		delete(q.ready, q.next)
		q.j.mu.Lock()
		q.j.results = append(q.j.results, r)
		q.j.mu.Unlock()
		q.s.persistResult(q.j, q.j.specs[q.next], r)
		q.j.events <- r // buffered to len(specs): never blocks
		q.s.pending.Add(-1)
		q.s.sched.Completed(q.j.Tenant, 1)
		q.next++
	}
}

// progress returns the contiguous completed prefix length — the index the
// job would resume from if preempted right now.
func (q *sequencer) progress() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.next
}

// Deadline and hedge derivation. Both are multiples of the observed
// per-configuration p99 scaled by batch size, and neither engages until
// the histogram holds minLatencySamples — a deadline guessed from a few
// cold-start samples would misclassify healthy workers as stragglers.
const (
	minLatencySamples = 16
	deadlineSlack     = 8                      // deadline = slack × batch × p99
	hedgeSlack        = 3                      // hedge fires earlier than the deadline
	minBatchDeadline  = 2 * time.Second        // floor: fast engines make p99 ≈ 0
	minHedgeDelay     = 500 * time.Millisecond // floor, for the same reason
)

// batchDeadline is the per-batch execution bound: a worker that blows it is
// treated like a failed dispatch (its breaker takes the blame, the batch is
// retried elsewhere). Zero means no deadline yet.
func (s *Server) batchDeadline(batchLen int) time.Duration {
	n, _, p99 := s.stats.ConfigLatency()
	if n < minLatencySamples {
		return 0
	}
	d := time.Duration(deadlineSlack*batchLen*p99) * time.Millisecond
	return max(d, minBatchDeadline)
}

// hedgeDelay is how long a batch may run before the coordinator races a
// duplicate on a second worker. Zero means hedging is off.
func (s *Server) hedgeDelay(batchLen int) time.Duration {
	n, _, p99 := s.stats.ConfigLatency()
	if n < minLatencySamples {
		return 0
	}
	d := time.Duration(hedgeSlack*batchLen*p99) * time.Millisecond
	return max(d, minHedgeDelay)
}

// workQueue is one job's index-ordered queue of cache-miss configurations.
// The streaming prepass appends to it while the dispatch loop (the single
// consumer) pulls batches off its head, so first dispatch overlaps the
// cache scan. unscanned counts configurations the prepass has not yet
// classified; queued()+unscanned is the dispatch loop's backlog estimate
// (an overestimate while hits remain unscanned, exact at the tail — which
// is when the tail-split rule needs it exact).
type workQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	idxs      []int
	closed    bool
	unscanned atomic.Int64
}

func newWorkQueue(unscanned int) *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	q.unscanned.Store(int64(unscanned))
	return q
}

func (q *workQueue) add(idx int) {
	q.mu.Lock()
	q.idxs = append(q.idxs, idx)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// close marks the producer done; wait drains to false once the queue
// empties.
func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// wait blocks until work is queued (true) or the queue is closed empty or
// ctx ends (false). With a single consumer, true guarantees the next pull
// returns at least one index.
func (q *workQueue) wait(ctx context.Context) bool {
	// cond.Wait cannot watch a context; convert cancellation into a
	// broadcast so the loop re-checks ctx (same pattern as Registry.Acquire).
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.idxs) > 0 {
			return true
		}
		if q.closed || ctx.Err() != nil {
			return false
		}
		q.cond.Wait()
	}
}

// pull removes and returns up to n indices from the head of the queue.
func (q *workQueue) pull(n int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n = min(n, len(q.idxs))
	out := q.idxs[:n:n]
	q.idxs = q.idxs[n:]
	return out
}

func (q *workQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.idxs)
}

// backlog estimates the configurations still to dispatch: queued misses
// plus everything the prepass has not classified yet.
func (q *workQueue) backlog() int {
	return q.queued() + int(q.unscanned.Load())
}

// batchSizer picks adaptive batch lengths for the pull loop. Three regimes:
// while the latency histogram is cold it ramps 1, 2, 4, ... so the first
// batches return quickly and feed it samples; warm, it packs the configured
// batch target of estimated work (target / p50) per batch; and near the end
// of a job the tail-split rule spreads the remaining backlog across every
// free slot instead of letting the last big batch ride one straggler.
// config.Cluster.BatchSize stays the hard cap throughout. Not safe for
// concurrent use — only the job's single dispatch loop calls next.
type batchSizer struct {
	s      *Server
	target time.Duration // cfg.BatchTarget()
	cap    int           // cfg.BatchSize
	ramp   int           // next cold-histogram batch length
}

func newBatchSizer(s *Server) *batchSizer {
	return &batchSizer{s: s, target: s.clust.cfg.BatchTarget(), cap: s.clust.cfg.BatchSize, ramp: 1}
}

// next returns the length of the next batch given the current backlog and
// the number of dispatch slots that could take work right now (including
// the one the caller already holds).
func (z *batchSizer) next(backlog, freeSlots int) int {
	n := z.steady()
	if freeSlots > 1 {
		// Tail split: when the backlog divides across the idle slots into
		// smaller batches than the steady-state size, prefer the split —
		// finishing the tail in parallel beats amortizing overhead.
		n = min(n, (backlog+freeSlots-1)/freeSlots)
	}
	return max(1, min(n, z.cap))
}

func (z *batchSizer) steady() int {
	n, p50, _ := z.s.stats.ConfigLatency()
	if n < minLatencySamples {
		b := z.ramp
		z.ramp = min(z.ramp*2, z.cap)
		return b
	}
	if p50 <= 0 {
		// Sub-millisecond configurations: per-batch overhead dominates, so
		// fill batches to the cap.
		return z.cap
	}
	return int(z.target.Milliseconds() / int64(p50))
}

// executeSharded runs a job's unfinished configurations through the
// cluster with a pull-based dispatch loop: a streaming prepass serves
// coordinator-cache hits through the sequencer and queues the misses (pre-
// marshalled once) in index order, while this loop pulls adaptively sized
// batches off the queue — one per acquired worker slot. A worker that
// finishes a batch early frees its slot and the loop immediately pulls the
// next batch for it: work steals itself to fast workers without a stealing
// protocol. Returns whether the job was cancelled, and whether the
// scheduler preempted it at a batch boundary (the caller requeues it as a
// resumable continuation).
func (s *Server) executeSharded(j *Job, startIdx int) (cancelled, preempted bool) {
	seq := &sequencer{s: s, j: j, next: startIdx, ready: make(map[int]ConfigResult)}
	q := newWorkQueue(len(j.specs) - startIdx)
	if j.encSpecs == nil {
		j.encSpecs = make([][]byte, len(j.specs))
	}

	var wg sync.WaitGroup
	// Local fallback runs are bounded by a semaphore the width of the local
	// pool, so a cluster that dies mid-job degrades to standalone
	// parallelism instead of unbounded goroutines.
	localSlots := make(chan struct{}, max(1, s.workers))
	runLocal := func(idxs []int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case localSlots <- struct{}{}:
			case <-j.ctx.Done():
				return
			}
			defer func() { <-localSlots }()
			s.runBatchLocally(j.ctx, j, idxs, seq)
		}()
	}

	// Streaming prepass: classify configurations in index order,
	// delivering cache hits through the sequencer and queueing misses for
	// dispatch — concurrently with the dispatch loop, so a mostly-cached
	// sweep's first batch leaves before the scan finishes. Misses are NOT
	// counted here — the engine run (and its hit/miss accounting) happens
	// wherever the configuration lands. The sharded path does not consult
	// the in-flight coalescing table: cross-job duplicate configurations
	// dispatched concurrently can compute twice (once per worker). The
	// waste is bounded — every remote result re-seeds the coordinator cache
	// the moment it lands, and deterministic simulations make the
	// duplicates harmless.
	// preempt stops both the prepass and the dispatch loop at the next
	// boundary once the scheduler asks for the slot back. In-flight batches
	// still land (wg.Wait below): their results re-seed the coordinator
	// cache, so the resumed job replays them as hits instead of recomputing.
	var preempt atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer q.close()
		for i := startIdx; i < len(j.specs); i++ {
			if preempt.Load() {
				return
			}
			spec := j.specs[i]
			if s.cache != nil {
				if v, ok := s.cache.get(specKey(spec)); ok && cacheUsable(v, spec) {
					s.stats.CacheHits.Add(1)
					res := newConfigResult(spec)
					res.Index = i
					res.Cached = true
					fillResult(&res, spec, v)
					seq.deliver(i, res)
					q.unscanned.Add(-1)
					continue
				}
			}
			data, err := json.Marshal(spec)
			if err != nil {
				// Specs are plain validated structs, so this cannot happen in
				// practice; route the orphan to the local pool, which needs
				// no wire encoding.
				q.unscanned.Add(-1)
				runLocal([]int{i})
				continue
			}
			j.encSpecs[i] = data
			q.unscanned.Add(-1)
			q.add(i)
		}
	}()

	sizer := newBatchSizer(s)
	for bi := 0; q.wait(j.ctx); {
		// Preemption check at the batch boundary, only once the quantum has
		// made progress (the contiguous prefix grew past the pickup point) —
		// the same ≥1-configuration guarantee as the local path.
		if seq.progress() > startIdx && s.shouldPreempt(j) {
			preempt.Store(true)
			break
		}
		lease, err := s.clust.registry.Acquire(j.ctx)
		if errors.Is(err, cluster.ErrNoWorkers) {
			// The whole cluster is gone right now. Drain one batch through
			// the local pool, then re-check membership — a worker that
			// (re-)registers mid-job takes the rest of the queue back.
			if idxs := q.pull(s.clust.cfg.BatchSize); len(idxs) > 0 {
				runLocal(idxs)
			}
			continue
		}
		if err != nil {
			break // job cancelled while waiting for a slot
		}
		_, free := s.clust.registry.Capacity()
		idxs := q.pull(sizer.next(q.backlog(), free+1)) // +1: the slot this lease holds
		if len(idxs) == 0 {
			lease.Release()
			continue
		}
		wg.Add(1)
		go func(bi int, idxs []int, lease cluster.Lease) {
			defer wg.Done()
			s.dispatchPulled(j, bi, idxs, seq, lease)
		}(bi, idxs, lease)
		bi++
	}
	// The barrier below is also the preemption fence: every in-flight batch
	// and the old sequencer are fully drained before the job re-enters the
	// scheduler, so a resumed quantum can never race this one.
	wg.Wait()
	cancelled = j.ctx.Err() != nil
	return cancelled, preempt.Load() && !cancelled
}

// buildExecuteRequest assembles one batch's wire form from the job's
// pre-marshalled specs (encoded once by the prepass; reused across every
// dispatch, retry and hedge of the batch).
func buildExecuteRequest(j *Job, bi int, idxs []int) (cluster.ExecuteRequest, error) {
	req := cluster.ExecuteRequest{JobID: j.ID, Batch: bi, Configs: make([]cluster.ExecuteConfig, len(idxs))}
	for k, idx := range idxs {
		data := j.encSpecs[idx]
		if data == nil {
			// Unreachable: the prepass encodes every index before queueing it.
			return req, fmt.Errorf("service: config %d has no encoded spec", idx)
		}
		req.Configs[k] = cluster.ExecuteConfig{Index: idx, Spec: data}
	}
	return req, nil
}

// dispatchPulled drives one pulled batch to completion on the slot the
// dispatch loop acquired for it: POST the batch (racing a hedge replica if
// it straggles), deliver its results. Retryable failures — transport
// errors, 5xx, blown deadlines — charge the worker's circuit breaker and
// re-dispatch the batch on a freshly acquired slot with backoff, up to the
// configured retry budget; terminal failures (a worker 4xx: the batch
// itself is poison) and exhausted budgets fall back to the coordinator's
// local pool, so a batch always makes progress. Cancellation of the job
// abandons the batch (the job's final accounting releases its backlog).
func (s *Server) dispatchPulled(j *Job, bi int, idxs []int, seq *sequencer, lease cluster.Lease) {
	ctx := j.ctx
	haveLease := true
	release := func() {
		if haveLease {
			lease.Release()
			haveLease = false
		}
	}
	req, err := buildExecuteRequest(j, bi, idxs)
	if err != nil {
		release()
		s.runBatchLocally(ctx, j, idxs, seq)
		return
	}
	backoff := cluster.Backoff{Base: s.clust.cfg.RetryBackoff(), Max: 20 * s.clust.cfg.RetryBackoff()}
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			release()
			return
		}
		if attempt > s.clust.cfg.DispatchRetries {
			release()
			s.runBatchLocally(ctx, j, idxs, seq)
			return
		}
		if attempt > 0 {
			s.stats.DispatchRetries.Add(1)
			if !backoff.Sleep(ctx, attempt-1) {
				release()
				return // job cancelled mid-backoff
			}
		}
		if !haveLease {
			lease, err = s.clust.registry.Acquire(ctx)
			if errors.Is(err, cluster.ErrNoWorkers) {
				s.runBatchLocally(ctx, j, idxs, seq)
				return
			}
			if err != nil {
				return // job cancelled while waiting for a slot
			}
		}
		haveLease = false // raceBatch releases every lease it launches
		start := time.Now()
		resp, winner, err := s.raceBatch(ctx, lease, req)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if !cluster.RetryableDispatch(err) {
				// The worker inspected the batch and rejected it (4xx):
				// every other worker would too. Only the local pool — which
				// needs no wire decode — can make progress on it.
				s.runBatchLocally(ctx, j, idxs, seq)
				return
			}
			s.stats.BatchesRedispatched.Add(1)
			continue
		}
		// Feed the deadline/hedge estimator: a batch round-trip amortized
		// over its configurations approximates per-config latency.
		perConfig := time.Since(start) / time.Duration(len(idxs))
		for range idxs {
			s.stats.ObserveConfigLatency(perConfig)
		}
		delivered := 0
		for k, raw := range resp.Results {
			idx := idxs[k]
			var res ConfigResult
			if err := json.Unmarshal(raw, &res); err != nil {
				// Garbage results count against the breaker like a failed
				// dispatch; the worker stays registered for liveness expiry
				// or recovery to decide its fate.
				if winner.ReportFailure() {
					s.stats.BreakerOpens.Add(1)
				}
				s.stats.BatchesRedispatched.Add(1)
				break
			}
			res.Index = idx // the coordinator's index is authoritative
			s.cacheRemoteResult(j.specs[idx], res)
			s.stats.RemoteConfigs.Add(1)
			seq.deliver(idx, res)
			delivered++
		}
		if delivered == len(idxs) {
			return // whole batch delivered
		}
		// A partial decode re-dispatches only the undelivered tail: the
		// sequencer has already released the decoded prefix, and re-sending
		// a released index would append its result a second time.
		idxs = idxs[delivered:]
		req, err = buildExecuteRequest(j, bi, idxs)
		if err != nil {
			s.runBatchLocally(ctx, j, idxs, seq)
			return
		}
	}
}

// raceBatch runs one batch on the acquired lease, hedging a duplicate onto
// a second worker if the primary straggles past the hedge delay. The first
// successful response wins; the loser's call is cancelled (and not blamed
// on its worker). A batch deadline, when enough latency samples exist,
// bounds the whole race — a worker that blows it is charged a failure.
// The winning lease is returned (already released) so the caller can charge
// it for undecodable payloads; it is meaningful only when err is nil.
func (s *Server) raceBatch(ctx context.Context, primary cluster.Lease, req cluster.ExecuteRequest) (cluster.ExecuteResponse, cluster.Lease, error) {
	var callCtx context.Context
	var cancel context.CancelFunc
	if d := s.batchDeadline(len(req.Configs)); d > 0 {
		callCtx, cancel = context.WithTimeout(ctx, d)
	} else {
		callCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type outcome struct {
		lease cluster.Lease
		resp  cluster.ExecuteResponse
		err   error
	}
	results := make(chan outcome, 2) // buffered: the losing attempt must not leak its goroutine
	var won atomic.Bool
	launch := func(l cluster.Lease) {
		go func() {
			resp, err := s.executeOnWorker(callCtx, l, req)
			switch {
			case err == nil:
				l.ReportSuccess()
			case !won.Load() && ctx.Err() == nil && cluster.RetryableDispatch(err):
				// An organic failure or a blown deadline — not fallout from
				// losing the race or from job cancellation.
				if l.ReportFailure() {
					s.stats.BreakerOpens.Add(1)
				}
			}
			l.Release()
			results <- outcome{lease: l, resp: resp, err: err}
		}()
	}
	launch(primary)

	var hedgeC <-chan time.Time
	if d := s.hedgeDelay(len(req.Configs)); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	inflight := 1
	var firstErr error
	for inflight > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			// The primary is straggling. Race a duplicate on a different
			// worker if one is free right now — never block for one, and
			// never double down on the straggler itself. The sequencer's
			// first-result-wins dedup makes the duplicate harmless.
			if l, ok := s.clust.registry.TryAcquire(primary.ID); ok {
				s.stats.BatchesHedged.Add(1)
				inflight++
				launch(l)
			}
		case o := <-results:
			inflight--
			if o.err == nil {
				won.Store(true)
				return o.resp, o.lease, nil
			}
			// A terminal (4xx) verdict outranks retryable errors: it tells
			// the caller re-dispatch is pointless.
			if firstErr == nil || !cluster.RetryableDispatch(o.err) {
				firstErr = o.err
			}
		}
	}
	return cluster.ExecuteResponse{}, cluster.Lease{}, firstErr
}

// executeOnWorker POSTs one batch to the lease's worker,
// aborting the call the moment the worker is removed from the registry
// (liveness expiry fires while the socket is still nominally open) so the
// batch can be re-dispatched without waiting on a dead peer.
func (s *Server) executeOnWorker(ctx context.Context, lease cluster.Lease, req cluster.ExecuteRequest) (cluster.ExecuteResponse, error) {
	callCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-lease.Gone:
			cancel()
		case <-done:
		}
	}()
	s.stats.BatchesDispatched.Add(1)
	resp, traffic, err := s.clust.client.ExecuteWith(callCtx, lease.URL, req)
	if traffic.BytesOut > 0 {
		s.stats.WireBinaryBatches.Add(1)
		s.stats.WireBinaryBytesOut.Add(traffic.BytesOut)
		s.stats.WireBinaryBytesIn.Add(traffic.BytesIn)
	}
	return resp, err
}

// runBatchLocally is the no-live-workers fallback: the coordinator's own
// pool executes the batch, with standalone semantics (runOne re-checks
// the cache, counts hits/misses/engine runs).
func (s *Server) runBatchLocally(ctx context.Context, j *Job, idxs []int, seq *sequencer) {
	for _, idx := range idxs {
		if ctx.Err() != nil {
			return
		}
		res := s.runOne(ctx, j.specs[idx])
		res.Index = idx
		if res.Error != "" && ctx.Err() != nil {
			return // aborted mid-run by cancellation: discard the partial result
		}
		seq.deliver(idx, res)
	}
}

// cacheRemoteResult re-seeds the coordinator cache from a worker-computed
// result. Workers strip latency arrays unless the spec kept them, so a
// stripped summary is cached as partialSummary — an include_latencies
// request later recomputes, exactly like a WAL-reseeded entry.
func (s *Server) cacheRemoteResult(spec runSpec, res ConfigResult) {
	if s.cache == nil || res.Error != "" {
		return
	}
	key := specKey(spec)
	switch {
	case res.Report != "":
		s.cache.put(key, res.Report)
	case res.Summary != nil && spec.KeepLatencies:
		s.cache.put(key, *res.Summary)
	case res.Summary != nil:
		s.cache.put(key, partialSummary{sum: *res.Summary})
	}
}
