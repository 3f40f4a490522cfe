package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestFaultInjectionOnAppendAndProbe: the wal.write and wal.sync
// failpoints surface injected errors from every append path, from Sync
// and from Probe, and clear the moment the schedule is disarmed — the
// store carries no sticky failure state of its own (lossy-mode
// bookkeeping lives in the service layer, keyed off these errors).
func TestFaultInjectionOnAppendAndProbe(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.AppendJob(JobRecord{ID: "job-000001"}); err != nil {
		t.Fatalf("append before injection: %v", err)
	}

	if err := fault.Configure(FaultWrite+"=err(disk full);"+FaultSync+"=err(io error)", 1); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	defer fault.Disable()

	if err := s.AppendJob(JobRecord{ID: "job-000002"}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AppendJob under injection = %v, want ErrInjected", err)
	}
	if err := s.AppendResult(ResultRecord{JobID: "job-000001", Index: 0, Result: []byte(`{}`)}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AppendResult under injection = %v, want ErrInjected", err)
	}
	if err := s.AppendDone(DoneRecord{JobID: "job-000001", State: "done"}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AppendDone under injection = %v, want ErrInjected", err)
	}
	if err := s.Probe(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Probe under injection = %v, want ErrInjected", err)
	}
	if err := s.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync under injection = %v, want ErrInjected", err)
	}

	// A failed append must not corrupt in-memory state: the job whose
	// record never hit the disk is not tracked.
	if got := s.Stats().Jobs; got != 1 {
		t.Fatalf("tracked jobs after failed appends = %d, want 1", got)
	}

	// Disarming clears the failure instantly: this is the re-attach the
	// service's durability probe waits for.
	fault.Disable()
	if err := s.Probe(); err != nil {
		t.Fatalf("Probe after disarm: %v", err)
	}
	if err := s.AppendJob(JobRecord{ID: "job-000002"}); err != nil {
		t.Fatalf("AppendJob after disarm: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after disarm: %v", err)
	}
}

// TestFaultCountedBurst: a count-limited wal.write schedule injects
// exactly N failures and then gets out of the way, modelling a transient
// disk hiccup rather than a dead volume.
func TestFaultCountedBurst(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := fault.Configure(FaultWrite+"=2*err(disk full)", 1); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	defer fault.Disable()

	for i := 0; i < 2; i++ {
		if err := s.AppendJob(JobRecord{ID: "job-000009"}); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append %d = %v, want ErrInjected", i, err)
		}
	}
	if err := s.AppendJob(JobRecord{ID: "job-000009"}); err != nil {
		t.Fatalf("append after the burst: %v", err)
	}
	if n := fault.Fires(FaultWrite); n != 2 {
		t.Fatalf("fires = %d, want 2", n)
	}
}

// TestCompactDirSyncFailureKeepsLog is the regression test for the
// compaction ordering bug: the log used to be truncated right after the
// snapshot rename, with no directory fsync in between, so a power cut
// could keep the truncate and lose the rename. Now a failed directory
// fsync aborts the compaction before the truncate: the log keeps every
// record, and a reopen (after a crash, no Close) recovers them all.
func TestCompactDirSyncFailureKeepsLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendJob(t, s, "job-000001", "sweep")
	appendResult(t, s, "job-000001", 0)
	appendResult(t, s, "job-000001", 1)
	if err := s.AppendDone(DoneRecord{JobID: "job-000001", State: "done"}); err != nil {
		t.Fatal(err)
	}
	appendJob(t, s, "job-000002", "run")
	logPath := filepath.Join(dir, WALName)
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	if err := fault.Configure(FaultDirSync+"=err(io error)", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	if err := s.Compact(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Compact under a failing directory fsync = %v, want ErrInjected", err)
	}
	fault.Disable()
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("log changed by a compaction that failed its directory fsync: %d bytes, want %d", len(after), len(before))
	}
	if _, records, dropped, err := Replay(bytes.NewReader(after)); err != nil || records != 5 || dropped != 0 {
		t.Fatalf("log after failed compaction: records=%d dropped=%d err=%v, want 5/0", records, dropped, err)
	}

	// Crash: drop the handle without Close's final compaction.
	s.mu.Lock()
	s.f.Close()
	s.f = nil
	s.mu.Unlock()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after failed compaction: %v", err)
	}
	defer s2.Close()
	jobs := s2.Replayed()
	if len(jobs) != 2 || len(jobs[0].Results) != 2 || jobs[0].State != "done" || jobs[1].Job.Kind != "run" {
		t.Fatalf("reopen after failed compaction = %+v", jobs)
	}
}
