package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// bootDaemon starts run() with the given args on an ephemeral port and
// returns its base URL plus the exit channel; closing stop drains it.
func bootDaemon(t *testing.T, args []string, out, errOut *bytes.Buffer, stop <-chan struct{}) (string, chan int) {
	t.Helper()
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() { exit <- run(args, out, errOut, ready, stop) }()
	select {
	case addr := <-ready:
		return "http://" + addr, exit
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon %v did not start; stderr: %s", args, errOut.String())
		return "", nil
	}
}

// TestClusterQuickstart is the README's three-local-processes walkthrough
// as a test: one coordinator and two workers booted through the real
// main(), a sweep submitted to the coordinator, every configuration
// executed remotely, and a clean drain for all three daemons.
func TestClusterQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("real daemon boot in -short mode")
	}
	var coordOut, coordErr, w1Out, w1Err, w2Out, w2Err bytes.Buffer
	stop := make(chan struct{})
	coordURL, coordExit := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-mode", "coordinator", "-workers", "1",
		"-heartbeat-interval", "50ms", "-liveness-expiry", "250ms", "-batch-size", "2",
	}, &coordOut, &coordErr, stop)
	_, w1Exit := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-mode", "worker", "-workers", "1",
		"-coordinator", coordURL, "-heartbeat-interval", "50ms",
	}, &w1Out, &w1Err, stop)
	_, w2Exit := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-mode", "worker", "-workers", "1",
		"-coordinator", coordURL, "-heartbeat-interval", "50ms",
	}, &w2Out, &w2Err, stop)

	// Wait until both workers are registered.
	type clusterView struct {
		LiveWorkers   int   `json:"live_workers"`
		RemoteConfigs int64 `json:"remote_configs"`
	}
	type health struct {
		Cluster *clusterView `json:"cluster"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(coordURL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		var h health
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h.Cluster != nil && h.Cluster.LiveWorkers == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered: %+v", h.Cluster)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A 3-configuration sweep, dispatched in 2 batches across the workers.
	body := `{"benchmarks":["vqe_n13"],"distances":[3],"runs":1}`
	resp, err := http.Post(coordURL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	var view struct {
		State   string `json:"state"`
		Results []struct {
			Scheduler string `json:"scheduler"`
			Summary   *struct {
				MeanCycles float64 `json:"mean_cycles"`
			} `json:"summary"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode sweep: %v", err)
	}
	resp.Body.Close()
	if view.State != "done" || len(view.Results) != 3 {
		t.Fatalf("sweep = %+v", view)
	}
	for i, r := range view.Results {
		if r.Summary == nil || r.Summary.MeanCycles <= 0 {
			t.Fatalf("result %d (%s) has no summary", i, r.Scheduler)
		}
	}

	// The work really went over the wire.
	resp, err = http.Get(coordURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Cluster == nil || h.Cluster.RemoteConfigs != 3 {
		t.Fatalf("remote_configs = %+v, want 3", h.Cluster)
	}

	// One shared stop channel reaches all three daemons; each drains.
	close(stop)
	for name, c := range map[string]chan int{"coordinator": coordExit, "worker1": w1Exit, "worker2": w2Exit} {
		select {
		case code := <-c:
			if code != 0 {
				t.Fatalf("%s exited %d\ncoord stderr: %s\nworker stderr: %s %s",
					name, code, coordErr.String(), w1Err.String(), w2Err.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not drain after stop", name)
		}
	}
	for _, out := range []*bytes.Buffer{&coordOut, &w1Out, &w2Out} {
		if !strings.Contains(out.String(), "drained cleanly") {
			t.Errorf("daemon missing drain confirmation:\n%s", out.String())
		}
	}
	if !strings.Contains(w1Out.String(), "heartbeating to "+coordURL) {
		t.Errorf("worker1 stdout missing heartbeat banner:\n%s", w1Out.String())
	}
	if !strings.Contains(coordOut.String(), "mode=coordinator") {
		t.Errorf("coordinator stdout missing mode banner:\n%s", coordOut.String())
	}
}
