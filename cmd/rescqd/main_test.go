package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDaemonServesAndDrains boots the real daemon on an ephemeral port,
// runs one tiny simulation through the HTTP API, then closes its stop
// channel and asserts a clean drain.
func TestDaemonServesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("real daemon boot in -short mode")
	}
	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	stop := make(chan struct{})
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8"}, &out, &errOut, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not start; stderr: %s", errOut.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	body := `{"benchmark":"vqe_n13","options":{"distance":5,"runs":1}}`
	resp, err = http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var runResp struct {
		State   string `json:"state"`
		Summary *struct {
			MeanCycles float64 `json:"mean_cycles"`
		} `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&runResp); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	resp.Body.Close()
	if runResp.State != "done" || runResp.Summary == nil || runResp.Summary.MeanCycles <= 0 {
		t.Fatalf("run response = %+v", runResp)
	}

	close(stop)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after stop")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("stdout missing drain confirmation:\n%s", out.String())
	}
}

func TestDaemonFlagAndConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad flag", []string{"-nope"}, 2},
		{"positional junk", []string{"extra"}, 2},
		{"missing config", []string{"-config", "/does/not/exist.json"}, 1},
		{"invalid workers", []string{"-workers", "-3"}, 1},
		{"unbindable addr", []string{"-addr", "256.0.0.1:99999"}, 1},
		{"unknown mode", []string{"-mode", "leader"}, 1},
		{"worker without coordinator", []string{"-mode", "worker"}, 1},
		{"worker with bad coordinator url", []string{"-mode", "worker", "-coordinator", "not-a-url"}, 1},
		{"coordinator flag in standalone", []string{"-coordinator", "http://coord:8321"}, 1},
		{"advertise flag in standalone", []string{"-advertise", "http://me:9000"}, 1},
		{"negative batch size", []string{"-mode", "coordinator", "-batch-size", "-2"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut, nil, nil); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, errOut.String())
			}
			if errOut.Len() == 0 {
				t.Error("error path produced no stderr output")
			}
		})
	}
}
