package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// seedStore builds a live store with state in both files: two jobs
// compacted into the snapshot, then a log delta holding more results, a
// terminal marker, a third job and an auxiliary state record.
func seedStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	job := func(id, tenant string) {
		if err := s.AppendJob(store.JobRecord{ID: id, Kind: "sweep", Tenant: tenant,
			Created: time.Unix(1700000000, 0).UTC(), Specs: json.RawMessage(`[{"benchmark":"gcm_n13"}]`)}); err != nil {
			t.Fatal(err)
		}
	}
	result := func(id string, idx int) {
		if err := s.AppendResult(store.ResultRecord{JobID: id, Index: idx, Key: fmt.Sprintf("key-%s-%d", id, idx),
			Result: json.RawMessage(fmt.Sprintf(`{"index":%d,"summary":{"mean_cycles":%d}}`, idx, 4800+idx))}); err != nil {
			t.Fatal(err)
		}
	}
	job("job-000001", "")
	result("job-000001", 0)
	job("job-000002", "alice")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	result("job-000001", 1)
	if err := s.AppendDone(store.DoneRecord{JobID: "job-000001", State: "done"}); err != nil {
		t.Fatal(err)
	}
	result("job-000002", 0)
	job("job-000003", "")
	if err := s.PutState("analytics", []byte(`{"cells":[1,2]}`)); err != nil {
		t.Fatal(err)
	}
	return s
}

// replayDir opens a store directory and returns its replayed jobs as JSON.
func replayDir(t *testing.T, dir string) []byte {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data, err := json.Marshal(s.Replayed())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDumpReplaysLikeBinaryFiles: the dump of a live store, replayed
// through store.Replay, is exactly the replay of the binary files it was
// taken from; and written into an empty directory as a JSON-era log, it
// opens, replays the same jobs and is migrated back to binary.
func TestDumpReplaysLikeBinaryFiles(t *testing.T) {
	dir := t.TempDir()
	s := seedStore(t, dir)
	var out, errOut bytes.Buffer
	if code := run([]string{"dump", dir}, &out, &errOut); code != 0 {
		t.Fatalf("dump exit %d: %s", code, errOut.String())
	}
	// Freeze the binary files as they were when dumped (Close compacts).
	frozen := t.TempDir()
	for _, name := range []string{store.SnapName, store.WALName} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte("RQWAL")) {
			t.Fatalf("%s is not a binary file", name)
		}
		if err := os.WriteFile(filepath.Join(frozen, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("dump printed %d lines, want 8 (3 snapshot + 5 log records):\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		var head struct{ Type string }
		if err := json.Unmarshal([]byte(line), &head); err != nil || head.Type == "" {
			t.Fatalf("line %d is not a typed JSON record (%v): %s", i, err, line)
		}
	}

	jobs, records, dropped, err := store.Replay(bytes.NewReader(out.Bytes()))
	if err != nil || records != 8 || dropped != 0 {
		t.Fatalf("replay of dump: records=%d dropped=%d err=%v", records, dropped, err)
	}
	got, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := replayDir(t, frozen)
	if !bytes.Equal(got, want) {
		t.Fatalf("dump replays differently from the binary files:\n dump: %s\nfiles: %s", got, want)
	}

	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, store.WALName), out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayDir(t, legacy); !bytes.Equal(got, want) {
		t.Fatalf("dump as a JSON-era log replays differently:\n  got %s\n want %s", got, want)
	}
	if raw, err := os.ReadFile(filepath.Join(legacy, store.WALName)); err != nil || !bytes.HasPrefix(raw, []byte("RQWAL")) {
		t.Fatalf("JSON-era log not migrated to binary by its first Open (err=%v)", err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"dump"}, {"cat", "x"}, {"dump", "a", "b"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "usage") {
			t.Fatalf("run(%q) = %d (%s), want usage error", args, code, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"dump", filepath.Join(t.TempDir(), "missing")}, &out, &errOut); code != 1 {
		t.Fatalf("dump of a missing store dir exited %d, want 1", code)
	}
}
