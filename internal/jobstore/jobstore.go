// Package jobstore persists the simd service's job lifecycle on disk.
//
// Every job is a directory holding an immutable spec, an append-only
// transition log, and an append-only record of completed sweep-run
// indices, each naming the result-cache entry that holds the run's
// result; the store keeps no other copy of a result. State is never
// stored directly: it is derived by replaying the transition log, so a
// store reopened after a crash — even one that cut a log line in half —
// reconstructs exactly the last durably recorded state. The state
// machine is
//
//	queued ──start──→ running ──finish──→ done
//	   │                 ├───────error──→ failed
//	   │                 ├──────cancel──→ canceled
//	   │                 └─drain/crash──→ queued   (requeue, resumable)
//	   └────cancel──→ canceled
//
// with every transition an immutable Event carrying a monotonic
// sequence number, a wall-clock timestamp, and a reason. Completed run
// indices are the sweep checkpoint: per-run seeds derive only from
// (base seed, index), so a job requeued mid-sweep resumes by re-running
// exactly the missing indices.
//
// A store has one writer: an open Store holds an exclusive flock on the
// directory's LOCK file, so a second Store or simd process over the same
// directory fails at Open instead of interleaving appends.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/durable"
)

// State is a job lifecycle state.
type State string

// The job states. Queued and Running are live; Done, Failed, and
// Canceled are terminal.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// legalNext enumerates the state machine's edges. Running→Queued is the
// requeue edge: graceful drain and crash recovery both take it, leaving
// the job eligible for a resumed pickup.
var legalNext = map[State][]State{
	Queued:  {Running, Canceled},
	Running: {Done, Failed, Canceled, Queued},
}

func legal(from, to State) bool {
	for _, s := range legalNext[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Event is one immutable transition-log entry. The creation event has
// From == "" and To == Queued.
type Event struct {
	Seq    int       `json:"seq"`
	Time   time.Time `json:"time"`
	From   State     `json:"from,omitempty"`
	To     State     `json:"to"`
	Reason string    `json:"reason,omitempty"`
}

// RunRecord marks one sweep-run index durably completed, pointing at
// the content-addressed cache entry holding its result bytes.
type RunRecord struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
}

// Job is a point-in-time copy of one job's replayed state. Mutating a
// returned Job never affects the store.
type Job struct {
	ID      string          `json:"id"`
	Spec    json.RawMessage `json:"spec"`
	State   State           `json:"state"`
	Events  []Event         `json:"events"`
	Runs    map[int]string  `json:"-"`
	Created time.Time       `json:"created"`
	Updated time.Time       `json:"updated"`
}

// job is the store's mutable record.
type job struct {
	id     string
	spec   json.RawMessage
	state  State
	events []Event
	runs   map[int]string
}

// Store is a durable job collection rooted at one directory, and that
// directory's only writer: it holds an exclusive lock on <dir>/LOCK
// from Open until Close. All methods are safe for concurrent use.
type Store struct {
	dir    string
	lock   *os.File
	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
}

// Open loads (or initializes) a store, replaying every job's transition
// log and run records. Truncated trailing lines — the signature of a
// crash mid-append — are discarded; the job resumes from its last fully
// written event. A job directory without a durable creation record, left
// by a crash inside Create, is removed: that job was never acknowledged.
//
// Open first takes an exclusive, non-blocking flock on <dir>/LOCK, so a
// second Open of the same directory — from this process or another —
// fails until the first store is closed or its process exits.
func Open(dir string) (*Store, error) {
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("jobstore: %s is held by another open store: %w", dir, err)
	}
	s := &Store{dir: dir, lock: lock, jobs: make(map[string]*job)}
	if err := s.load(jobsDir); err != nil {
		lock.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the directory lock. The store must not be written
// after Close.
func (s *Store) Close() error { return s.lock.Close() }

// load replays every job directory under jobsDir in creation order.
func (s *Store) load(jobsDir string) error {
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "j") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids) // zero-padded IDs sort in creation order
	for _, id := range ids {
		j, err := s.replay(id)
		if errors.Is(err, errNeverCreated) {
			if err := s.discard(id); err != nil {
				return fmt.Errorf("jobstore: replaying %s: %w", id, err)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("jobstore: replaying %s: %w", id, err)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// JobDir returns the directory holding one job's durable records —
// spec, transition log, run checkpoints, and (for distributed jobs) the
// coordinator's claim-ledger WAL.
func (s *Store) JobDir(id string) string { return s.jobDir(id) }

func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// errNeverCreated is replay's verdict on a job directory whose
// transition log is missing or holds no complete record: a crash inside
// Create left it, before the creation record was durable, so Create
// never returned and the job was never acknowledged.
var errNeverCreated = errors.New("no durable creation record")

// replay reconstructs one job from its on-disk records. A durable
// creation record without a spec is lost acknowledged data, and fails.
func (s *Store) replay(id string) (*job, error) {
	dir := s.jobDir(id)
	j := &job{id: id, runs: make(map[int]string)}
	err := durable.Replay(filepath.Join(dir, "log.ndjson"), func(line []byte) error {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		if len(j.events) == 0 {
			if ev.From != "" || ev.To != Queued {
				return fmt.Errorf("first event is %q→%q, want creation (→queued)", ev.From, ev.To)
			}
		} else if ev.From != j.state || !legal(ev.From, ev.To) {
			return fmt.Errorf("illegal replayed transition %q→%q from state %q", ev.From, ev.To, j.state)
		}
		j.events = append(j.events, ev)
		j.state = ev.To
		return nil
	})
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(j.events) == 0) {
		return nil, errNeverCreated
	}
	if err != nil {
		return nil, err
	}
	if j.spec, err = os.ReadFile(filepath.Join(dir, "spec.json")); err != nil {
		return nil, err
	}
	err = durable.Replay(filepath.Join(dir, "runs.ndjson"), func(line []byte) error {
		var rr RunRecord
		if err := json.Unmarshal(line, &rr); err != nil {
			return err
		}
		j.runs[rr.Index] = rr.Key
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return j, nil
}

// discard removes the directory a crash inside Create left behind. It
// holds at most the spec, its temp file and the log, since nothing else
// is written before the creation record; anything more fails.
func (s *Store) discard(id string) error {
	dir := s.jobDir(id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name != "spec.json" && name != "log.ndjson" && !strings.HasPrefix(name, "spec.json.") {
			return fmt.Errorf("%w, yet the directory holds %s", errNeverCreated, name)
		}
	}
	return os.RemoveAll(dir)
}

// Create allocates a job, durably writes its spec, and records the
// creation transition into Queued.
func (s *Store) Create(spec json.RawMessage) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("j%06d", s.nextID)
	dir := s.jobDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Job{}, fmt.Errorf("jobstore: %w", err)
	}
	if err := durable.WriteFile(filepath.Join(dir, "spec.json"), spec); err != nil {
		return Job{}, fmt.Errorf("jobstore: %w", err)
	}
	ev := Event{Seq: 1, Time: time.Now().UTC(), To: Queued, Reason: "submitted"}
	if err := durable.Append(filepath.Join(dir, "log.ndjson"), ev); err != nil {
		return Job{}, fmt.Errorf("jobstore: %w", err)
	}
	s.nextID++
	j := &job{id: id, spec: spec, state: Queued, events: []Event{ev}, runs: make(map[int]string)}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return snapshot(j), nil
}

// Transition appends a state transition, validating it against the
// machine. The event is durable before the in-memory state moves.
func (s *Store) Transition(id string, to State, reason string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("jobstore: unknown job %q", id)
	}
	if !legal(j.state, to) {
		return Job{}, fmt.Errorf("jobstore: illegal transition %q→%q for %s", j.state, to, id)
	}
	ev := Event{Seq: len(j.events) + 1, Time: time.Now().UTC(), From: j.state, To: to, Reason: reason}
	if err := durable.Append(filepath.Join(s.jobDir(id), "log.ndjson"), ev); err != nil {
		return Job{}, fmt.Errorf("jobstore: %w", err)
	}
	j.events = append(j.events, ev)
	j.state = to
	return snapshot(j), nil
}

// RecordRun durably marks one sweep-run index completed. Re-recording
// an index (a resume discovering a cached result) is idempotent.
func (s *Store) RecordRun(id string, index int, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("jobstore: unknown job %q", id)
	}
	if _, dup := j.runs[index]; dup {
		return nil
	}
	rr := RunRecord{Index: index, Key: key}
	if err := durable.Append(filepath.Join(s.jobDir(id), "runs.ndjson"), rr); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	j.runs[index] = key
	return nil
}

// SetResult writes a document as the job's result.json atomically
// (durable.WriteFile). Nothing in simd calls it or reads the file: a
// job's report is streamed from the result cache. It stays only because
// perfbench times it (jobstore.set_result_ms); delete it once the
// benchmark drops that call.
func (s *Store) SetResult(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return fmt.Errorf("jobstore: unknown job %q", id)
	}
	if err := durable.WriteFile(filepath.Join(s.jobDir(id), "result.json"), data); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// Get returns a copy of one job's state.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return snapshot(j), true
}

// List returns copies of every job in creation order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, snapshot(s.jobs[id]))
	}
	return out
}

// snapshot deep-copies a job record; callers hold s.mu.
func snapshot(j *job) Job {
	out := Job{
		ID:      j.id,
		Spec:    append(json.RawMessage(nil), j.spec...),
		State:   j.state,
		Events:  append([]Event(nil), j.events...),
		Runs:    make(map[int]string, len(j.runs)),
		Created: j.events[0].Time,
		Updated: j.events[len(j.events)-1].Time,
	}
	for i, k := range j.runs {
		out.Runs[i] = k
	}
	return out
}
