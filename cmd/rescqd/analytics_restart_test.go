package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// analyticsIdentityQueries is the query set whose answers must survive a
// kill+restart byte-for-byte. It covers all three endpoint families over
// the resumeSweep axes.
var analyticsIdentityQueries = []string{
	"/v1/analytics/groupby?by=scheduler",
	"/v1/analytics/groupby?by=benchmark,scheduler",
	"/v1/analytics/pareto?benchmark=gcm_n13",
	"/v1/analytics/sensitivity?a=rescq&b=greedy",
}

func analyticsAnswers(t *testing.T, base string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(analyticsIdentityQueries))
	for _, q := range analyticsIdentityQueries {
		resp, err := http.Get(base + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", q, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", q, resp.StatusCode, body)
		}
		out[q] = body
	}
	return out
}

// TestDaemonKillRestartAnalytics is the analytics twin of
// TestDaemonKillRestartResume: boot the daemon with a store dir, SIGKILL it
// mid-sweep, reboot on the same dir, let the resumed job finish, and assert
// every analytics query answers byte-identically to a fresh, uninterrupted
// control daemon that ran the same sweep. This is the proof that the
// snapshot+replay rebuild path and the incremental ingest path converge on
// the same aggregate state.
func TestDaemonKillRestartAnalytics(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess + real engine in -short mode")
	}
	dir := t.TempDir()

	// --- Phase 1: the daemon as a subprocess, killed mid-sweep. ---
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RESCQD_HELPER_STORE="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatal("daemon subprocess never reported its listen address")
	}
	go func() { // keep the pipe drained
		for sc.Scan() {
		}
	}()

	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(resumeSweep))
	if err != nil {
		t.Fatalf("POST sweep: %v", err)
	}
	var submitted jobViewLite
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	if submitted.ID == "" {
		t.Fatalf("submit failed: %+v", submitted)
	}

	deadline := time.Now().Add(120 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		v := getJob(t, base, submitted.ID)
		if v.Progress.Done >= 1 {
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
			killed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !killed {
		t.Fatal("no configuration completed before the kill deadline")
	}
	cmd.Wait()

	// --- Phase 2: reboot in-process on the same store dir, let the
	// resumed job finish, and collect the analytics answers. ---
	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	exitCh := make(chan int, 1)
	stop := make(chan struct{})
	go func() {
		exitCh <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-store-dir", dir},
			&out, &errOut, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("restarted daemon did not come up; stderr: %s", errOut.String())
	}
	base2 := "http://" + addr

	var resumed jobViewLite
	for end := time.Now().Add(300 * time.Second); time.Now().Before(end); time.Sleep(25 * time.Millisecond) {
		resumed = getJob(t, base2, submitted.ID)
		if resumed.State == "done" || resumed.State == "failed" || resumed.State == "cancelled" {
			break
		}
	}
	if resumed.State != "done" || resumed.Progress.Done != resumeSweepConfigs {
		t.Fatalf("resumed job = %+v (stderr: %s)", resumed, errOut.String())
	}
	resumedAnswers := analyticsAnswers(t, base2)

	drain := func(which string, stop chan struct{}, ch <-chan int, errOut *bytes.Buffer) {
		t.Helper()
		close(stop)
		select {
		case code := <-ch:
			if code != 0 {
				t.Fatalf("%s daemon exit %d; stderr: %s", which, code, errOut.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%s daemon did not drain after stop", which)
		}
	}
	drain("restarted", stop, exitCh, &errOut)

	// --- Phase 3: a fresh daemon + fresh store dir runs the identical
	// sweep uninterrupted; its analytics answers are the reference. ---
	var cout, cerr bytes.Buffer
	cready := make(chan string, 1)
	cexit := make(chan int, 1)
	cstop := make(chan struct{})
	go func() {
		cexit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-store-dir", t.TempDir()},
			&cout, &cerr, cready, cstop)
	}()
	var caddr string
	select {
	case caddr = <-cready:
	case <-time.After(30 * time.Second):
		t.Fatalf("control daemon did not come up; stderr: %s", cerr.String())
	}
	control := strings.Replace(resumeSweep, `,"async":true`, "", 1)
	cresp, err := http.Post("http://"+caddr+"/v1/sweep", "application/json", strings.NewReader(control))
	if err != nil {
		t.Fatalf("control sweep: %v", err)
	}
	var controlView jobViewLite
	if err := json.NewDecoder(cresp.Body).Decode(&controlView); err != nil {
		t.Fatalf("decode control: %v", err)
	}
	cresp.Body.Close()
	if controlView.State != "done" {
		t.Fatalf("control sweep = %+v", controlView)
	}
	controlAnswers := analyticsAnswers(t, "http://"+caddr)

	for _, q := range analyticsIdentityQueries {
		if !bytes.Equal(resumedAnswers[q], controlAnswers[q]) {
			t.Errorf("analytics answer for %s differs after kill+resume:\nresumed: %s\ncontrol: %s",
				q, resumedAnswers[q], controlAnswers[q])
		}
	}
	drain("control", cstop, cexit, &cerr)
}
