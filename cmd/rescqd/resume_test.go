package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the helper-process entry point for the SIGKILL
// resume test: when RESCQD_HELPER_STORE is set, this binary IS the daemon.
func TestMain(m *testing.M) {
	if dir := os.Getenv("RESCQD_HELPER_STORE"); dir != "" {
		os.Exit(run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-store-dir", dir},
			os.Stdout, os.Stderr, nil, nil))
	}
	os.Exit(m.Run())
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// resumeSweep is the kill-and-restart workload: three real-engine
// configurations, each inflated to ~30 seeded runs (hundreds of ms) so
// the SIGKILL reliably lands mid-sweep rather than after it.
const resumeSweep = `{"benchmarks":["gcm_n13"],"schedulers":["rescq","greedy","autobraid"],"runs":30,"async":true}`

const resumeSweepConfigs = 3

type jobViewLite struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Progress struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	} `json:"progress"`
	Results []json.RawMessage `json:"results"`
}

func getJob(t *testing.T, base, id string) jobViewLite {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var v jobViewLite
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

// TestDaemonKillRestartResume is the end-to-end durability proof on the
// real engine and a real process: boot the daemon with a store dir, start
// a multi-configuration sweep, SIGKILL the process mid-flight, reboot on
// the same store dir, and assert the resumed job's completed result set is
// byte-identical to an uninterrupted run.
func TestDaemonKillRestartResume(t *testing.T) {
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

	// Wait for at least one configuration to be checkpointed, then KILL —
	// no drain, no store close, a torn WAL tail is fair game.
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

	// --- Phase 2: reboot in-process on the same store dir and resume. ---
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
	// The kill must have landed mid-sweep: exactly one interrupted job
	// comes back from the WAL and is re-enqueued.
	if !strings.Contains(out.String(), "1 interrupted jobs re-enqueued") {
		t.Errorf("restart banner missing the interrupted-job replay:\n%s", out.String())
	}

	var resumed jobViewLite
	for end := time.Now().Add(300 * time.Second); time.Now().Before(end); time.Sleep(25 * time.Millisecond) {
		resumed = getJob(t, base2, submitted.ID) // same job id across the restart
		if resumed.State == "done" || resumed.State == "failed" || resumed.State == "cancelled" {
			break
		}
	}
	if resumed.State != "done" || resumed.Progress.Done != resumeSweepConfigs {
		t.Fatalf("resumed job = %+v (stderr: %s)", resumed, errOut.String())
	}

	// The restarted daemon must have replayed, not recomputed: /metrics
	// shows the WAL replay counters.
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := new(bytes.Buffer)
	mbody.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"rescqd_replayed_jobs_total 1", "rescqd_store_records"} {
		if !strings.Contains(mbody.String(), want) {
			t.Errorf("/metrics missing %q after restart", want)
		}
	}

	// Drain the restarted daemon cleanly before the control boots, so the
	// control runs alone.
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

	// --- Phase 3: the uninterrupted control run, byte-for-byte — on a
	// FRESH daemon with a FRESH store dir, so nothing it serves can come
	// from the WAL or cache the resumed run produced (a same-daemon
	// control would compare the resume's bytes against themselves). ---
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
	// Compare per configuration, ignoring only the cached flag.
	if len(controlView.Results) != len(resumed.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(controlView.Results), len(resumed.Results))
	}
	for i := range resumed.Results {
		a := normalizeResult(t, resumed.Results[i])
		b := normalizeResult(t, controlView.Results[i])
		if !bytes.Equal(a, b) {
			t.Errorf("configuration %d differs after kill+resume:\n%s\n%s", i, a, b)
		}
	}
	drain("control", cstop, cexit, &cerr)
}

// normalizeResult re-encodes a ConfigResult with the cached flag zeroed,
// leaving every simulation byte (options, summary, layout) intact.
func normalizeResult(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad result %s: %v", raw, err)
	}
	delete(m, "cached")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
