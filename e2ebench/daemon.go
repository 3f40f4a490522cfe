package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/service"
)

// daemon is one in-process rescqd, wired exactly as cmd/rescqd wires it.
type daemon struct {
	svc       *service.Server
	srv       *http.Server
	url       string
	serveDone chan error
}

// startDaemon builds, starts and serves one daemon on a loopback port:
// service.New, AttachStore when cfg names a store directory, Start, and an
// http.Server over Handler. A nil runner is the real engine, as in
// cmd/rescqd; wrap, when non-nil, decorates the handler (tracing only).
// It reports how long AttachStore took.
func startDaemon(cfg config.Daemon, runner service.Runner, wrap func(http.Handler) http.Handler) (*daemon, time.Duration, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	svc := service.New(cfg, runner)
	var attach time.Duration
	if cfg.StoreDir != "" {
		t := time.Now()
		if _, err := svc.AttachStore(cfg.StoreDir); err != nil {
			svc.Shutdown(context.Background())
			return nil, 0, err
		}
		attach = time.Since(t)
	}
	svc.Start()
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, 0, err
	}
	d := &daemon{svc: svc, srv: srv, url: "http://" + ln.Addr().String(), serveDone: make(chan error, 1)}
	go func() { d.serveDone <- srv.Serve(ln) }()
	return d, attach, nil
}

// stop drains the daemon the way cmd/rescqd does on SIGTERM and waits for
// its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	err := d.svc.Shutdown(ctx)
	if serveErr := <-d.serveDone; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// stack is the set of daemons one workload talks to: a standalone daemon,
// or a coordinator with one worker registered through cluster.Heartbeater.
type stack struct {
	front  *daemon // the daemon clients talk to
	worker *daemon // nil unless clustered
	hbStop context.CancelFunc
	hbDone chan struct{}

	stopOnce sync.Once
	stopErr  error
}

// stop drains every daemon of the stack; calls after the first return the
// first call's result.
func (s *stack) stop() error {
	s.stopOnce.Do(func() {
		if s.hbStop != nil {
			s.hbStop()
			<-s.hbDone
		}
		s.stopErr = s.front.stop()
		if s.worker != nil {
			if err := s.worker.stop(); s.stopErr == nil {
				s.stopErr = err
			}
		}
	})
	return s.stopErr
}

// startStack starts the workload's daemons with a durable store in
// storeDir and waits until they serve: /healthz answers 200 on the front
// daemon and, when clustered, the coordinator lists the worker. It
// reports the set-up time (from the first service.New until then) and the
// front daemon's AttachStore time.
func startStack(ctx context.Context, storeDir string, clustered bool, tr *tracer) (*stack, time.Duration, time.Duration, error) {
	start := time.Now()
	mode := ""
	if clustered {
		mode = config.ModeCoordinator
	}
	front, attach, err := startDaemon(
		config.Daemon{StoreDir: storeDir, Cluster: config.Cluster{Mode: mode}}.WithDefaults(),
		tr.runner("front"), tr.handler("front"))
	if err != nil {
		return nil, 0, 0, err
	}
	st := &stack{front: front}
	if clustered {
		// One engine slot on the worker, as rescqd -mode worker -workers 1:
		// the cluster path then does sweep_cold's work on one core, so the
		// two workloads differ by the cost of dispatch alone.
		wcfg := config.Daemon{Workers: 1, Cluster: config.Cluster{Mode: config.ModeWorker, CoordinatorURL: front.url}}.WithDefaults()
		w, _, err := startDaemon(wcfg, tr.runner("worker"), tr.handler("worker"))
		if err != nil {
			front.stop()
			return nil, 0, 0, err
		}
		st.worker = w
		// As cmd/rescqd -mode worker: one heartbeat now, then one per
		// interval, advertising the bound loopback URL.
		hb := &cluster.Heartbeater{
			Client: cluster.NewTunedClient(cluster.ClientOptions{
				DialTimeout:     wcfg.Cluster.DialTimeout(),
				IdleConnTimeout: wcfg.Cluster.IdleConnTimeout(),
			}),
			CoordinatorURL: front.url,
			Self: cluster.RegisterRequest{ID: w.url, URL: w.url, Capacity: w.svc.Workers(),
				Codecs: cluster.SupportedCodecs()},
			Interval: wcfg.Cluster.HeartbeatInterval(),
			Jitter:   wcfg.Cluster.HeartbeatJitter,
			Retries:  wcfg.Cluster.DispatchRetries,
			Draining: w.svc.WorkerDraining,
		}
		hbCtx, hbStop := context.WithCancel(context.Background())
		st.hbStop, st.hbDone = hbStop, make(chan struct{})
		go func() {
			defer close(st.hbDone)
			hb.Run(hbCtx)
		}()
	}
	if err := st.waitReady(ctx); err != nil {
		st.stop()
		return nil, 0, 0, err
	}
	return st, time.Since(start), attach, nil
}

// waitReady polls until the stack serves. It yields instead of sleeping
// between polls: set-up takes about a millisecond, the granularity of a
// short timer on the reference machine.
func (s *stack) waitReady(ctx context.Context) error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s.worker == nil || workerListed(s.front) {
			resp, err := hc.Get(s.front.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready after 30s", s.front.url)
		}
		runtime.Gosched()
	}
}

func workerListed(d *daemon) bool {
	ws, _ := d.svc.ClusterWorkers()
	return len(ws) > 0
}
