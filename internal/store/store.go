// Package store implements rescqd's durability layer: an append-only,
// crash-safe on-disk job + result log (a write-ahead log with snapshot
// compaction) that lets the daemon survive a restart without dropping
// queued jobs or re-burning completed simulation work.
//
// # Log format
//
// Every log and snapshot file the store writes is binary: an 8-byte
// magic+version header, then length-prefixed frames — uvarint payload
// length, the payload (kind byte, flags byte, length-prefixed fields,
// flate-compressed when it pays), and a CRC32 of the payload. Length+CRC
// framing makes torn tails and partial appends detectable by construction.
//
// Logs written before the binary format existed are headerless
// newline-delimited JSON records:
//
//	{"type":"job","id":"job-000001","kind":"sweep","created":...,"specs":[...]}
//	{"type":"result","job":"job-000001","index":0,"key":"<rescq.CacheKey>","result":{...}}
//	{"type":"done","job":"job-000001","state":"done"}
//
// The store still reads them (the format is sniffed per file from its
// first bytes) but never writes them: the first Open of a JSON-era store
// directory migrates it to binary through compaction. Dump renders a store
// back into this JSON-lines form for inspection (cmd/rescq-wal dump), and
// its output replays like any JSON-era log.
//
// The store is deliberately ignorant of the payload shapes: specs and
// results travel as opaque bytes, so the service layer owns the schema
// and the store owns durability. Result records carry the canonical
// rescq.CacheKey of their configuration, which is what lets the daemon
// re-seed its result cache on replay and coalesce identical work across
// restarts.
//
// # Crash safety
//
// The store is single-writer: Open takes a non-blocking exclusive flock
// on the log, so a second process on the same directory fails fast with
// ErrLocked instead of interleaving writes; the kernel releases the lock
// on any process death. Every record is written with a single O_APPEND
// Write call of one complete frame, so a crash (SIGKILL included)
// can only ever truncate the final record; a short or failed write is
// truncated back off the log immediately so a recovered disk appends onto
// a clean tail, never onto torn garbage.
// Replay tolerates exactly the crash signature: a trailing partial or
// corrupt record is counted and discarded, every complete record before
// it is recovered. A record that fails to decode mid-log (torn by an
// external editor, not a crash) ends replay at that point rather than
// guessing.
//
// # Compaction
//
// The in-memory index mirrors the on-disk state: jobs, their results,
// terminal states. Compact writes the index into a snapshot file
// (fsynced, atomically renamed over the previous one, and the rename made
// durable by fsyncing the directory), then truncates the log in place, so
// replay cost is bounded by live state: Open reads the snapshot and the
// log delta, and the log holds only records appended since the last
// compaction. Open compacts automatically when the replayed state carries
// enough garbage to matter or was read from JSON-era files, and Append*
// triggers an inline compaction when the records since the last one
// exceed a threshold.
//
// Appends reach the kernel, not the disk: they survive a process crash,
// and Sync (taken on graceful drain) makes them survive an OS crash.
// Between syncs, a power cut can lose the most recent appends.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
)

// Record types, the "type" field of every JSON-era log line (binary frames
// carry the equivalent kind byte).
const (
	recJob    = "job"
	recResult = "result"
	recDone   = "done"
	recState  = "state"
)

// Failpoints on the WAL's write paths (see internal/fault). An injected
// "disk full" here is how the chaos suite proves the daemon degrades to
// lossy serving instead of 5xx-ing submissions; an injected "short"
// message additionally simulates a partially-completed write so the
// torn-tail rollback is exercised end to end.
const (
	// FaultWrite fires in every record append (and in Probe, so a probe
	// sees the same simulated disk the appends do).
	FaultWrite = "wal.write"
	// FaultSync fires in Sync, the OS-crash checkpoint on graceful drain.
	FaultSync = "wal.sync"
	// FaultDirSync fires in compaction's directory fsync, between the
	// snapshot rename and the log truncate.
	FaultDirSync = "wal.dirsync"
)

// JobRecord persists one submitted job: its identity and its fully
// validated run specifications (opaque to the store). Tenant is the
// owning tenant for scheduler accounting; "" — every record written
// before tenancy existed, and all default-tenant traffic since — replays
// as the default tenant, so old logs need no migration.
type JobRecord struct {
	Type    string          `json:"type"` // filled by the store
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Created time.Time       `json:"created"`
	Specs   json.RawMessage `json:"specs"`
	Tenant  string          `json:"tenant,omitempty"`
}

// ResultRecord persists one completed run configuration of a job. Key is
// the configuration's canonical rescq.CacheKey ("" for uncacheable
// configurations); Result is the service-layer ConfigResult payload.
type ResultRecord struct {
	Type   string          `json:"type"` // filled by the store
	JobID  string          `json:"job"`
	Index  int             `json:"index"`
	Key    string          `json:"key,omitempty"`
	Result json.RawMessage `json:"result"`
}

// DoneRecord persists a job's terminal state.
type DoneRecord struct {
	Type  string `json:"type"` // filled by the store
	JobID string `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// StateRecord persists one named auxiliary state blob riding the job log
// — e.g. the analytics aggregate snapshot. Last writer wins per name, the
// current value is carried through every compaction, and replay surfaces
// it via State; it is invisible to job replay. The payload must be valid
// JSON (the JSON-lines format Dump writes embeds it verbatim).
//
// Note for downgrades: daemons older than this record kind treat unknown
// record types as corruption, so a log that carries state records does
// not replay on them. Disabling the writer (-analytics=false) keeps a log
// free of state records.
type StateRecord struct {
	Type    string          `json:"type"` // filled by the store
	Name    string          `json:"name"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// ReplayedJob is one job reconstructed from the log: the job record, its
// persisted results in index order, and its terminal state ("" while the
// job was still queued or running when the log ended — an interrupted job
// the daemon should re-enqueue).
type ReplayedJob struct {
	Job     JobRecord
	Results []ResultRecord
	State   string
	Error   string
}

// Terminal reports whether the job reached a terminal state before the
// log ended.
func (r *ReplayedJob) Terminal() bool { return r.State != "" }

// Stats is a point-in-time size snapshot of the store. Records and Bytes
// cover the snapshot plus the log delta — the full on-disk state a replay
// reads.
type Stats struct {
	Jobs        int   `json:"jobs"`         // jobs in the index
	Records     int   `json:"records"`      // records on disk (snapshot + log)
	Bytes       int64 `json:"bytes"`        // on-disk size (snapshot + log)
	Compactions int64 `json:"compactions"`  // lifetime compaction count
	TailDropped int   `json:"tail_dropped"` // partial/corrupt tail records discarded at Open

	SnapshotRecords int   `json:"snapshot_records"` // records in the snapshot file
	SnapshotBytes   int64 `json:"snapshot_bytes"`   // snapshot file size

	// Append accounting since Open, for the /metrics counters.
	Appends     int64 `json:"appends"`
	AppendBytes int64 `json:"append_bytes"`
}

// Options tunes a Store; the zero value is production-sensible.
type Options struct {
	// RetainJobs bounds how many terminal jobs compaction keeps (oldest
	// evicted first); 0 means the default 1024. Interrupted and running
	// jobs are always retained.
	RetainJobs int
	// CompactEvery triggers an inline compaction after this many appended
	// records; 0 means the default 8192.
	CompactEvery int
}

func (o Options) withDefaults() Options {
	if o.RetainJobs == 0 {
		o.RetainJobs = 1024
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 8192
	}
	return o
}

// WALName is the log's filename inside the store directory. (The name
// predates the binary format: a binary log keeps it, and announces itself
// with the magic header instead.)
const WALName = "wal.jsonl"

// SnapName is the compaction snapshot's filename inside the store
// directory: the full live state as of the last compaction, atomically
// replaced, replayed before the log delta.
const SnapName = "wal.snap"

// Store is the durable job + result log. All methods are safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	opts Options
	path string
	f    *os.File

	jobs   map[string]*ReplayedJob
	order  []string          // job ids in first-seen order
	states map[string][]byte // named auxiliary state blobs, last writer wins

	records     int   // records currently in the log file (including garbage)
	sinceComp   int   // records appended since the last compaction
	bytes       int64 // log file size
	snapRecords int   // records in the snapshot file
	snapBytes   int64 // snapshot file size
	torn        bool  // a failed append left a tail we could not truncate yet
	compactions int64
	tailDropped int
	appends     int64
	appendBytes int64

	replayed []ReplayedJob // snapshot taken at Open, in log order
}

// Open opens (creating if needed) the store in dir and replays the
// snapshot plus the log delta. A partial or corrupt tail record in the
// log — the signature of a crash mid-append — is discarded; everything
// before it is recovered. The snapshot is written atomically, so any
// damage there is fatal rather than tolerated. JSON-era files replay
// like binary ones and are rewritten as binary before Open returns.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, WALName)
	// O_APPEND: every record lands atomically at EOF even if a stale
	// handle (a crashed-but-lingering writer) races this one.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// One daemon per store dir: an exclusive flock rejects a second Open
	// while the first holder lives; the kernel releases it on any process
	// death, SIGKILL included, so crash-restart never needs cleanup.
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	s := &Store{opts: opts, path: path, f: f, jobs: make(map[string]*ReplayedJob)}

	// Snapshot first, then the log delta, merged into one replay state.
	st := newReplayState()
	snapPath := filepath.Join(dir, SnapName)
	legacySnap := false
	if sf, serr := os.Open(snapPath); serr == nil {
		legacySnap, serr = replayStream(st, sf)
		sf.Close()
		if serr == nil && st.dropped > 0 {
			serr = fmt.Errorf("%d torn records in an atomically-written file", st.dropped)
		}
		if serr != nil {
			f.Close()
			return nil, fmt.Errorf("store: replay snapshot %s: %w", snapPath, serr)
		}
		s.snapRecords = st.records
		if fi, err := os.Stat(snapPath); err == nil {
			s.snapBytes = fi.Size()
		}
	} else if !errors.Is(serr, os.ErrNotExist) {
		f.Close()
		return nil, fmt.Errorf("store: %w", serr)
	}
	legacyLog, err := replayStream(st, f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: replay %s: %w", path, err)
	}
	s.records = st.records - s.snapRecords
	s.tailDropped = st.dropped
	for _, id := range st.order {
		s.jobs[id] = st.jobs[id]
		s.order = append(s.order, id)
	}
	s.states = st.states
	if s.states == nil {
		s.states = make(map[string][]byte)
	}
	s.replayed = st.sorted()
	if fi, err := f.Stat(); err == nil {
		s.bytes = fi.Size()
	}
	if s.bytes == 0 {
		// Fresh log: stamp the header.
		n, werr := f.Write(walMagic[:])
		if werr != nil {
			f.Close()
			return nil, fmt.Errorf("store: write log header: %w", werr)
		}
		s.bytes = int64(n)
	}
	// A freshly replayed state that carries garbage (dropped tail,
	// evictable jobs, duplicate records) or came from JSON-era files is
	// compacted right away, so a crash-loop cannot grow the files without
	// bound and a JSON-era store migrates to binary on its first Open.
	if s.tailDropped > 0 || len(s.order) > opts.RetainJobs || st.records > s.liveRecords() ||
		legacyLog || legacySnap {
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// Replayed returns the jobs reconstructed at Open, in log order.
func (s *Store) Replayed() []ReplayedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ReplayedJob(nil), s.replayed...)
}

// Stats reports the store's current size.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Jobs:            len(s.jobs),
		Records:         s.snapRecords + s.records,
		Bytes:           s.snapBytes + s.bytes,
		Compactions:     s.compactions,
		TailDropped:     s.tailDropped,
		SnapshotRecords: s.snapRecords,
		SnapshotBytes:   s.snapBytes,
		Appends:         s.appends,
		AppendBytes:     s.appendBytes,
	}
}

// AppendJob logs a submitted job. Re-appending a known id is a no-op
// (resumed jobs are already on disk). AppendJob never compacts inline:
// the service calls it on its submission path (holding a server-wide
// lock so a result can never precede its job record), and a cascaded
// whole-log rewrite there would stall every submission. Results and
// terminal markers — appended from worker goroutines — carry the
// compaction trigger instead, and every job eventually produces one.
func (s *Store) AppendJob(r JobRecord) error {
	r.Type = recJob
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if _, ok := s.jobs[r.ID]; ok {
		return nil
	}
	if err := s.writeLocked(r); err != nil {
		return err
	}
	s.jobs[r.ID] = &ReplayedJob{Job: r}
	s.order = append(s.order, r.ID)
	return nil
}

// AppendResult logs one completed run configuration. Results must arrive
// in index order per job; a duplicate or out-of-order index is dropped
// (it can only be a replayed configuration re-reported on resume).
func (s *Store) AppendResult(r ResultRecord) error {
	r.Type = recResult
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	j, ok := s.jobs[r.JobID]
	if !ok || r.Index != len(j.Results) {
		return nil
	}
	if err := s.writeLocked(r); err != nil {
		return err
	}
	j.Results = append(j.Results, r)
	return s.maybeCompactLocked()
}

// AppendDone logs a job's terminal state.
func (s *Store) AppendDone(r DoneRecord) error {
	r.Type = recDone
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	j, ok := s.jobs[r.JobID]
	if !ok || j.State != "" {
		return nil
	}
	if err := s.writeLocked(r); err != nil {
		return err
	}
	j.State, j.Error = r.State, r.Error
	return s.maybeCompactLocked()
}

// PutState upserts a named auxiliary state blob (see StateRecord). The
// payload must be valid JSON. Last write wins; the current value rides
// every compaction, so replay cost for the state is one record.
func (s *Store) PutState(name string, payload []byte) error {
	if name == "" {
		return errors.New("store: state name required")
	}
	r := StateRecord{Type: recState, Name: name, Payload: json.RawMessage(payload)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if err := s.writeLocked(r); err != nil {
		return err
	}
	s.states[name] = append([]byte(nil), payload...)
	return s.maybeCompactLocked()
}

// State returns the named auxiliary state blob as of the last PutState
// (or the replayed value at Open), and whether it exists.
func (s *Store) State(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.states[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// HasJob reports whether the store's index still holds the job — i.e.
// whether a future replay of this store could resurface its records.
// Callers that keep per-job replay bookkeeping (the analytics watermarks)
// use it to prune entries for jobs compaction has evicted.
func (s *Store) HasJob(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.jobs[id]
	return ok
}

var errClosed = errors.New("store: closed")

// ErrLocked is returned by Open when another live process holds the WAL.
var ErrLocked = errors.New("wal locked by another process")

// rollbackTailLocked truncates a partial append back off the log so the
// next successful write lands on a clean tail. If even the truncate fails
// the log is flagged torn and the next append retries it first — appends
// are refused until the tail is clean again.
func (s *Store) rollbackTailLocked() {
	if err := s.f.Truncate(s.bytes); err != nil {
		s.torn = true
	} else {
		s.torn = false
	}
}

func (s *Store) writeLocked(v any) error {
	frame, err := encodeBinaryRecord(v)
	if err != nil {
		return err
	}
	if err := fault.Check(FaultWrite); err != nil {
		// An injected "short" message simulates a write that only
		// partially completed (ENOSPC mid-record): half the frame lands
		// on disk and the rollback must clean it up, exactly as for an
		// organic short write below.
		var fe *fault.Error
		if errors.As(err, &fe) && fe.Msg == "short" && len(frame) > 1 {
			if n, _ := s.f.Write(frame[:len(frame)/2]); n > 0 {
				s.rollbackTailLocked()
			}
		}
		return fmt.Errorf("store: append: %w", err)
	}
	if s.torn {
		// A previous failed append left a tail we could not truncate;
		// retry before writing anything after it.
		if terr := s.f.Truncate(s.bytes); terr != nil {
			return fmt.Errorf("store: append: torn tail: %w", terr)
		}
		s.torn = false
	}
	// One complete frame per Write call: a crash can truncate the final
	// record but never interleave two.
	n, werr := s.f.Write(frame)
	if werr != nil || n != len(frame) {
		if n > 0 {
			s.rollbackTailLocked()
		}
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return fmt.Errorf("store: append: %w", werr)
	}
	s.bytes += int64(n)
	s.records++
	s.sinceComp++
	s.appends++
	s.appendBytes += int64(n)
	return nil
}

// liveRecords counts the records a compacted log would hold.
func (s *Store) liveRecords() int {
	n := len(s.states)
	for _, j := range s.jobs {
		n += 1 + len(j.Results)
		if j.State != "" {
			n++
		}
	}
	return n
}

func (s *Store) maybeCompactLocked() error {
	if s.sinceComp < s.opts.CompactEvery && len(s.order) <= 2*s.opts.RetainJobs {
		return nil
	}
	return s.compactLocked()
}

// Compact writes the in-memory index into the snapshot file (evicting
// terminal jobs beyond the retention bound), atomically replaces the
// previous snapshot, fsyncs the directory so the replacement is durable,
// and only then truncates the log in place.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Evict the oldest terminal jobs beyond the retention bound.
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].Terminal() {
			terminal++
		}
	}
	if evict := terminal - s.opts.RetainJobs; evict > 0 {
		kept := s.order[:0]
		for _, id := range s.order {
			if evict > 0 && s.jobs[id].Terminal() {
				delete(s.jobs, id)
				evict--
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}

	// Write the full live state into a fresh snapshot — this is also where
	// a JSON-era store migrates to binary.
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, SnapName+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the successful rename
	w := bufio.NewWriter(tmp)
	w.Write(walMagic[:])
	records := 0
	emit := func(v any) bool {
		frame, err := encodeBinaryRecord(v)
		if err != nil {
			return false
		}
		if _, err := w.Write(frame); err != nil {
			return false
		}
		records++
		return true
	}
	for _, id := range s.order {
		j := s.jobs[id]
		ok := emit(j.Job)
		for _, r := range j.Results {
			ok = ok && emit(r)
		}
		if j.State != "" {
			ok = ok && emit(DoneRecord{Type: recDone, JobID: id, State: j.State, Error: j.Error})
		}
		if !ok {
			tmp.Close()
			return fmt.Errorf("store: compact: rewrite failed")
		}
	}
	// Auxiliary state blobs survive compaction at their latest value,
	// emitted in name order so identical state compacts to identical bytes.
	names := make([]string, 0, len(s.states))
	for name := range s.states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !emit(StateRecord{Type: recState, Name: name, Payload: json.RawMessage(s.states[name])}) {
			tmp.Close()
			return fmt.Errorf("store: compact: rewrite failed")
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	fi, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, SnapName)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	tmp.Close()
	// The rename lives in the directory entry, not in either file: without
	// this fsync a power cut could keep the truncate below but lose the
	// rename, leaving the old snapshot next to an empty log.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("store: compact: sync dir: %w", err)
	}

	// The snapshot now holds everything: empty the log in place. The fd,
	// its flock and the O_APPEND mode all stay — a crash between the
	// rename and this truncate merely leaves stale log records that the
	// next replay merges idempotently (duplicates are dropped).
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: compact: truncate log: %w", err)
	}
	s.bytes = 0
	n, werr := s.f.Write(walMagic[:])
	if werr != nil || n != len(walMagic) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return fmt.Errorf("store: compact: write log header: %w", werr)
	}
	s.bytes = int64(n)
	s.records = 0
	s.sinceComp = 0
	s.snapRecords = records
	s.snapBytes = fi.Size()
	s.compactions++
	s.torn = false
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	if err := fault.Check(FaultDirSync); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsyncDir(d)
}

// Sync flushes the log to stable storage (fsync). Appends themselves only
// guarantee process-crash durability (the write reaches the kernel); Sync
// is the OS-crash checkpoint the daemon takes on graceful drain.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if err := fault.Check(FaultSync); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return s.f.Sync()
}

// Probe checks whether the WAL can take writes again, for the service's
// durability probe while it serves in lossy mode. It exercises the same
// failpoint and fsync path as a real append — without writing a record,
// because Replay treats unknown record types as corruption and a probe
// marker would poison every future replay of the log.
func (s *Store) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if err := fault.Check(FaultWrite); err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	return nil
}

// Close compacts, syncs and closes the log. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.compactLocked()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// replayState accumulates jobs across one or more replayed streams (the
// snapshot, then the log delta).
type replayState struct {
	jobs    map[string]*ReplayedJob
	order   []string // first-seen order
	states  map[string][]byte
	records int
	dropped int
	// visit, when set, sees every valid record in stream order (Dump).
	visit func(rec any)
}

func newReplayState() *replayState {
	return &replayState{jobs: make(map[string]*ReplayedJob)}
}

func (st *replayState) get(id string) *ReplayedJob {
	j, ok := st.jobs[id]
	if !ok {
		j = &ReplayedJob{Job: JobRecord{Type: recJob, ID: id}}
		st.jobs[id] = j
		st.order = append(st.order, id)
	}
	return j
}

// apply merges one decoded record into the state, enforcing the replay
// semantics shared by both formats: results and done markers arriving
// before their job record are buffered under a synthetic job, duplicate
// and out-of-order result indices are dropped, and the first job record /
// done marker for an id wins. An error means the record is invalid
// (missing its id), not that the merge failed.
func (st *replayState) apply(rec any) error {
	switch r := rec.(type) {
	case JobRecord:
		if r.ID == "" {
			return errors.New("job record without id")
		}
		r.Type = recJob
		j := st.get(r.ID)
		if j.Job.Specs == nil {
			created := j.Job.Created
			j.Job = r
			if r.Created.IsZero() {
				j.Job.Created = created
			}
		}
	case ResultRecord:
		if r.JobID == "" {
			return errors.New("result record without job id")
		}
		r.Type = recResult
		j := st.get(r.JobID)
		if r.Index == len(j.Results) {
			j.Results = append(j.Results, r)
		}
	case DoneRecord:
		if r.JobID == "" {
			return errors.New("done record without job id")
		}
		r.Type = recDone
		j := st.get(r.JobID)
		if j.State == "" {
			j.State, j.Error = r.State, r.Error
		}
	case StateRecord:
		if r.Name == "" {
			return errors.New("state record without name")
		}
		if st.states == nil {
			st.states = make(map[string][]byte)
		}
		// Last writer wins: the log is replayed oldest-first.
		st.states[r.Name] = append([]byte(nil), r.Payload...)
	default:
		return fmt.Errorf("unknown record %T", rec)
	}
	st.records++
	if st.visit != nil {
		st.visit(rec)
	}
	return nil
}

// sorted returns the accumulated jobs ordered by JobIDLess.
func (st *replayState) sorted() []ReplayedJob {
	out := make([]ReplayedJob, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, *st.jobs[id])
	}
	sort.SliceStable(out, func(a, b int) bool { return JobIDLess(out[a].Job.ID, out[b].Job.ID) })
	return out
}

// replayStream sniffs the stream's format from its opening bytes and
// replays it into st, reporting whether it was a JSON-era stream. The
// binary magic selects the binary replayer (consuming the header), an
// empty stream replays nothing, an unknown binary version is refused
// outright, and anything else is read as JSON lines.
func replayStream(st *replayState, r io.Reader) (legacy bool, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	hdr, err := br.Peek(len(walMagic))
	switch {
	case len(hdr) == 0:
		if err == io.EOF {
			err = nil
		}
		return false, err
	case bytes.Equal(hdr, walMagic[:]):
		br.Discard(len(walMagic))
		return false, replayBinary(st, br)
	case len(hdr) >= 7 && bytes.Equal(hdr[:6], walMagic[:6]) && hdr[6] != binVersion:
		return false, fmt.Errorf("store: unsupported binary log version %d (this build reads version %d)", hdr[6], binVersion)
	}
	return true, replayJSON(st, br)
}

// replayJSON replays a JSON-era newline-delimited log. Garbage is tolerated
// only as the final (torn) tail: a complete record following it proves
// mid-log corruption and fails the replay.
func replayJSON(st *replayState, r *bufio.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxRecordBytes)
	var pendingErr error
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			// Only acceptable as the torn final record of a crash; if more
			// complete records follow, the log is corrupt mid-stream.
			st.dropped++
			pendingErr = fmt.Errorf("store: corrupt record %d: %w", st.records+st.dropped, err)
			continue
		}
		if pendingErr != nil {
			return pendingErr
		}
		var rec any
		switch head.Type {
		case recJob:
			var jr JobRecord
			if err := json.Unmarshal(line, &jr); err == nil {
				rec = jr
			}
		case recResult:
			var rr ResultRecord
			if err := json.Unmarshal(line, &rr); err == nil {
				rec = rr
			}
		case recDone:
			var dr DoneRecord
			if err := json.Unmarshal(line, &dr); err == nil {
				rec = dr
			}
		case recState:
			var sr StateRecord
			if err := json.Unmarshal(line, &sr); err == nil {
				rec = sr
			}
		default:
			st.dropped++
			pendingErr = fmt.Errorf("store: unknown record type %q", head.Type)
			continue
		}
		if rec == nil || st.apply(rec) != nil {
			st.dropped++
			pendingErr = fmt.Errorf("store: bad %s record %d", head.Type, st.records+st.dropped)
			continue
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An oversized line can only be a torn or hostile tail record;
			// everything already decoded stands.
			st.dropped++
		} else {
			return fmt.Errorf("store: read log: %w", err)
		}
	}
	return nil
}

// replayBinary replays length-prefixed binary frames (the header magic
// already consumed by the sniff). An incomplete final frame is the crash
// signature and is dropped; a complete-but-corrupt frame is dropped only
// when nothing follows it — bytes after it prove mid-log corruption.
func replayBinary(st *replayState, br *bufio.Reader) error {
	for {
		rec, _, err := readBinaryRecord(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				st.dropped++ // torn tail: the crash signature
				return nil
			}
			st.dropped++
			if _, perr := br.Peek(1); perr == nil {
				return fmt.Errorf("store: corrupt record %d: %w", st.records+st.dropped, err)
			}
			return nil
		}
		if aerr := st.apply(rec); aerr != nil {
			st.dropped++
			if _, perr := br.Peek(1); perr == nil {
				return fmt.Errorf("store: bad record %d: %w", st.records+st.dropped, aerr)
			}
			return nil
		}
	}
}

// Replay reconstructs jobs from one log or snapshot stream, binary or
// JSON-era (sniffed from the leading bytes). It returns the jobs in id
// order, the number of complete records read, and the number of
// partial/corrupt records discarded at the tail. Replay is tolerant of the crash signature (a
// torn final record) and of record interleavings: results and done
// markers arriving before their job record are buffered and merged,
// duplicate and out-of-order result indices are dropped, and a second job
// record for a known id is ignored. Orphan results whose job record never
// appears are attached to a synthetic spec-less job so their cache keys
// remain recoverable.
func Replay(r io.Reader) ([]ReplayedJob, int, int, error) {
	st := newReplayState()
	if _, err := replayStream(st, r); err != nil {
		return nil, st.records, st.dropped, err
	}
	return st.sorted(), st.records, st.dropped, nil
}

// Dump writes the store in dir — the snapshot, then the log — as JSON
// lines in the JSON-era record format, one line per record in file order
// (duplicates and superseded state included), which Replay and Open still
// read. A torn log tail is skipped exactly as replay skips it. Dump takes
// no lock, so it can inspect the store of a running daemon — but a
// compaction that lands between reading the two files can hide the
// records it moved, so only a stopped daemon's store dumps exactly.
func Dump(dir string, w io.Writer) error {
	bw := bufio.NewWriter(w)
	var encErr error
	st := newReplayState()
	st.visit = func(rec any) {
		line, err := json.Marshal(rec)
		if err != nil {
			encErr = cmp.Or(encErr, err)
			return
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	for _, name := range []string{SnapName, WALName} {
		f, err := os.Open(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) && name == SnapName {
			continue // never compacted
		}
		if err != nil {
			return fmt.Errorf("store: dump: %w", err)
		}
		_, err = replayStream(st, f)
		f.Close()
		if err = cmp.Or(err, encErr); err != nil {
			return fmt.Errorf("store: dump %s: %w", name, err)
		}
	}
	return bw.Flush()
}

// JobIDLess orders job ids for replay and listings: ids sharing a prefix
// are compared by their trailing decimal counter, so "job-1000000" sorts
// after "job-999999" (plain string order would put it first the moment the
// counter outgrows its zero padding). Ids without a numeric suffix fall
// back to string order.
func JobIDLess(a, b string) bool {
	pa, na, aok := splitNumericSuffix(a)
	pb, nb, bok := splitNumericSuffix(b)
	if aok && bok && pa == pb {
		if na != nb {
			return na < nb
		}
		return a < b // differing zero padding only
	}
	return a < b
}

// splitNumericSuffix splits "job-001234" into ("job-", 1234, true).
func splitNumericSuffix(id string) (prefix string, n uint64, ok bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return id, 0, false
	}
	// Overflow-proof enough for ids minted from an int64 counter; a
	// hostile 30-digit suffix just falls back to string order.
	if len(id)-i > 19 {
		return id, 0, false
	}
	for _, c := range []byte(id[i:]) {
		n = n*10 + uint64(c-'0')
	}
	return id[:i], n, true
}
