package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestStateRoundTrip: state survives a close/reopen whether it was
// written by PutState or read from a JSON-era log, last writer wins, and
// the value rides the compaction snapshot.
func TestStateRoundTrip(t *testing.T) {
	puts := []StateRecord{
		{Type: recState, Name: "analytics", Payload: json.RawMessage(`{"v":1}`)},
		{Type: recState, Name: "analytics", Payload: json.RawMessage(`{"v":2}`)},
		{Type: recState, Name: "other", Payload: json.RawMessage(`"x"`)},
	}
	for _, codec := range []string{"binary", "json"} {
		t.Run(codec, func(t *testing.T) {
			dir := t.TempDir()
			if codec == "json" {
				writeLegacyLog(t, dir, puts[0], puts[1], puts[2])
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if codec == "binary" {
				for _, p := range puts {
					if err := s.PutState(p.Name, p.Payload); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, ok := s.State("analytics"); !ok || !bytes.Equal(got, []byte(`{"v":2}`)) {
				t.Fatalf("State before close = %q, %v", got, ok)
			}
			appendJob(t, s, "job-000001", "sweep")
			if err := s.Close(); err != nil { // Close compacts: states must ride the snapshot
				t.Fatal(err)
			}

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got, ok := s2.State("analytics"); !ok || !bytes.Equal(got, []byte(`{"v":2}`)) {
				t.Fatalf("State after reopen = %q, %v (last writer must win through compaction)", got, ok)
			}
			if got, ok := s2.State("other"); !ok || !bytes.Equal(got, []byte(`"x"`)) {
				t.Fatalf("second state lost: %q, %v", got, ok)
			}
			if _, ok := s2.State("missing"); ok {
				t.Fatal("missing state reported present")
			}
			if len(s2.Replayed()) != 1 {
				t.Fatalf("state records leaked into job replay: %+v", s2.Replayed())
			}
		})
	}
}

// TestStateCrossCodecMigration: a state read from a JSON-era log survives
// the compaction that migrates the log to binary.
func TestStateCrossCodecMigration(t *testing.T) {
	dir := t.TempDir()
	writeLegacyLog(t, dir, StateRecord{Type: recState, Name: "analytics", Payload: json.RawMessage(`{"cells":[]}`)})
	s2, err := Open(dir, Options{}) // migrates at Open
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.State("analytics"); !ok || !bytes.Equal(got, []byte(`{"cells":[]}`)) {
		t.Fatalf("state lost across codec migration: %q, %v", got, ok)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, SnapName)); err != nil || !bytes.HasPrefix(raw, walMagic[:]) {
		t.Fatalf("snapshot after migration is not binary (err=%v)", err)
	}
}

func TestPutStateValidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutState("", []byte(`{}`)); err == nil {
		t.Fatal("empty state name accepted")
	}
}

func TestHasJob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RetainJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendJob(t, s, "job-000001", "sweep")
	if !s.HasJob("job-000001") {
		t.Fatal("appended job not indexed")
	}
	if s.HasJob("job-999999") {
		t.Fatal("unknown job reported present")
	}
	// Push two more terminal jobs through so compaction evicts the oldest.
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		appendJob(t, s, id, "sweep")
		if err := s.AppendDone(DoneRecord{JobID: id, State: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.HasJob("job-000001") {
		t.Fatal("evicted job still reported present")
	}
	if !s.HasJob("job-000003") {
		t.Fatal("retained job lost")
	}
}
