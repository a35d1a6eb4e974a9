package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLifecycleAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(`{"scenario":"baseline-f3","runs":4}`)
	j, err := s.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Queued {
		t.Fatalf("created job in %q, want queued", j.State)
	}
	if _, err := s.Transition(j.ID, Running, "picked up"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 0, "key0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 2, "key2"); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-record (resume discovering a cached result).
	if err := s.RecordRun(j.ID, 2, "key2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Done, "all runs merged"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetResult(j.ID, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must replay identically.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("job lost on reopen")
	}
	if got.State != Done {
		t.Errorf("replayed state %q, want done", got.State)
	}
	if want := []int{0, 2}; !reflect.DeepEqual(runIndices(got), want) {
		t.Errorf("replayed runs %v, want %v", runIndices(got), want)
	}
	if got.Runs[2] != "key2" {
		t.Errorf("replayed run key %q, want key2", got.Runs[2])
	}
	if len(got.Events) != 3 {
		t.Errorf("replayed %d events, want 3", len(got.Events))
	}
	for i, ev := range got.Events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	res, err := os.ReadFile(filepath.Join(dir, "jobs", j.ID, "result.json"))
	if err != nil || string(res) != `{"ok":true}` {
		t.Errorf("result.json holds %q (%v)", res, err)
	}
}

// runIndices returns the job's recorded run indices in ascending order.
func runIndices(j Job) []int {
	out := make([]int, 0, len(j.Runs))
	for i := range j.Runs {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func TestIllegalTransitionsRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Done, ""); err == nil {
		t.Error("queued→done allowed")
	}
	if _, err := s.Transition(j.ID, Running, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Queued, "drain"); err != nil {
		t.Errorf("running→queued (requeue) rejected: %v", err)
	}
	if _, err := s.Transition(j.ID, Canceled, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, ""); err == nil {
		t.Error("transition out of terminal state allowed")
	}
}

// TestCrashRecoveryTruncatedLog simulates a crash mid-append: the last
// log line is cut in half. Reopening must discard the torn tail and
// resume from the last durable event.
func TestCrashRecoveryTruncatedLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, "picked up"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 0, "k0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(j.ID, 1, "k1"); err != nil {
		t.Fatal(err)
	}

	// Tear the tail off both append-only files.
	logPath := filepath.Join(dir, "jobs", j.ID, "log.ndjson")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(raw, []byte(`{"seq":3,"time":"2026-08-08T12:`)...)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	runsPath := filepath.Join(dir, "jobs", j.ID, "runs.ndjson")
	rr, err := os.ReadFile(runsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runsPath, append(rr, []byte(`{"index":2,"ke`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn writes: %v", err)
	}
	got, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if got.State != Running {
		t.Errorf("state %q after torn tail, want running (last durable)", got.State)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(runIndices(got), want) {
		t.Errorf("completed %v, want %v (torn record dropped)", runIndices(got), want)
	}

	// The requeue edge lets the recovered job resume.
	if _, err := s2.Transition(j.ID, Queued, "recovered after restart"); err != nil {
		t.Fatal(err)
	}
	got, _ = s2.Get(j.ID)
	if got.State != Queued {
		t.Errorf("state %q, want queued", got.State)
	}
	// And the next transition continues the durable sequence.
	if got.Events[len(got.Events)-1].Seq != 3 {
		t.Errorf("recovery event seq %d, want 3", got.Events[len(got.Events)-1].Seq)
	}
}

// TestAppendAfterTornTailStaysClean pins the tail-repair contract: a
// torn final line must be truncated on replay, so the next append lands
// on a clean line boundary. Without the repair, the new record fuses
// with the partial one and the SECOND reopen reads it as mid-file
// corruption — a resumable store that silently becomes unrecoverable
// one restart later.
func TestAppendAfterTornTailStaysClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, "picked up"); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "jobs", j.ID, "log.ndjson")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: partial JSON, no trailing newline.
	if err := os.WriteFile(logPath, append(raw, []byte(`{"seq":3,"ti`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Transition(j.ID, Queued, "recovered"); err != nil {
		t.Fatal(err)
	}
	// The restart after the restart: the log must still replay cleanly.
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("second reopen after post-torn append: %v", err)
	}
	got, ok := s3.Get(j.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if got.State != Queued {
		t.Errorf("state %q, want queued", got.State)
	}
	if got.Events[len(got.Events)-1].Seq != 3 {
		t.Errorf("last seq %d, want 3", got.Events[len(got.Events)-1].Seq)
	}
}

// TestMidFileCorruptionFails distinguishes a torn tail (recoverable)
// from corruption with durable successors (not recoverable silently).
func TestMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, ""); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "jobs", j.ID, "log.ndjson")
	raw, _ := os.ReadFile(logPath)
	lines := strings.SplitAfter(string(raw), "\n")
	lines[0] = "garbage not json\n"
	if err := os.WriteFile(logPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Twice: a failed Open must release the lock it took, so the second
	// attempt fails on the corruption again, not on the lock.
	for i := 0; i < 2; i++ {
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "replaying") {
			t.Errorf("open %d: want a replay error for mid-file corruption, got %v", i+1, err)
		}
	}
}

// TestOpenDiscardsUnacknowledgedCreate crashes Create at each point
// before its creation record is durable, next to an intact job. Create
// had not returned, so the job was never acknowledged: Open must remove
// its directory and carry on, not refuse the whole store. A durable
// creation record without its spec is lost acknowledged data, and must
// still fail Open.
func TestOpenDiscardsUnacknowledgedCreate(t *testing.T) {
	spec := []byte(`{"runs":2}`)
	for _, c := range []struct {
		name  string
		files map[string]string // file name -> contents in the crashed job's directory
		fail  bool
	}{
		{"temp spec only", map[string]string{"spec.json.123.tmp": `{"ru`}, false},
		{"no log", map[string]string{"spec.json": string(spec)}, false},
		{"empty log", map[string]string{"spec.json": string(spec), "log.ndjson": ""}, false},
		{"torn first line", map[string]string{"spec.json": string(spec), "log.ndjson": `{"seq":1,"time":"2026-10-18T0`}, false},
		{"record without spec", map[string]string{"log.ndjson": `{"seq":1,"time":"2026-10-18T02:00:00Z","to":"queued"}` + "\n"}, true},
		{"runs without creation record", map[string]string{"spec.json": string(spec), "runs.ndjson": `{"index":0,"key":"k0"}` + "\n"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			intact, err := s.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			crashed := filepath.Join(dir, "jobs", "j000001")
			if err := os.MkdirAll(crashed, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, body := range c.files {
				if err := os.WriteFile(filepath.Join(crashed, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2, err := Open(dir)
			if c.fail {
				if err == nil {
					s2.Close()
					t.Fatal("Open accepted a store that lost acknowledged data")
				}
				return
			}
			if err != nil {
				t.Fatalf("Open after a crash inside Create: %v", err)
			}
			defer s2.Close()
			if _, err := os.Stat(crashed); !os.IsNotExist(err) {
				t.Errorf("crashed job directory still there (stat: %v)", err)
			}
			jobs := s2.List()
			if len(jobs) != 1 || jobs[0].ID != intact.ID || jobs[0].State != Queued || string(jobs[0].Spec) != string(spec) {
				t.Fatalf("jobs after reopen = %+v, want only the intact %s", jobs, intact.ID)
			}
			if _, err := s2.Create(spec); err != nil {
				t.Fatalf("Create after recovery: %v", err)
			}
		})
	}
}

// TestConcurrentClaimExactlyOneWinner is the claim race at the store
// level: after a lease expires, every replacement worker observes the
// job requeued and races to pick it up. The transition log is the
// arbiter — queued→running is legal exactly once, so exactly one
// claimant wins and the losers get the illegal-transition error
// instead of a duplicate lease.
func TestConcurrentClaimExactlyOneWinner(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	const claimants = 8
	var wins atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := s.Transition(j.ID, Running, fmt.Sprintf("claimed by w%d", g)); err == nil {
				wins.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if got := wins.Load(); got != 1 {
		t.Fatalf("%d claimants won the queued→running race, want exactly 1", got)
	}
	got, _ := s.Get(j.ID)
	if got.State != Running {
		t.Fatalf("state %q after claim race, want running", got.State)
	}
	if len(got.Events) != 2 {
		t.Fatalf("%d events after claim race, want 2 (create + single claim)", len(got.Events))
	}
}

// TestConcurrentRequeueAndDuplicatePublish distills the lease-expiry
// race end to end: a zombie worker keeps publishing run records after
// its lease lapsed while the coordinator requeues the job and a
// replacement re-publishes the same indices. RecordRun's idempotence is
// the healing contract — the replacement's cache probe re-records
// indices the zombie already landed, and exactly one record per index
// must be durable. The requeue/finish transition race must likewise
// resolve to exactly one winner.
func TestConcurrentRequeueAndDuplicatePublish(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(json.RawMessage(`{"runs":16}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Running, "claimed"); err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	// Zombie and replacement both publish every index; the cache key is
	// content-addressed so both carry the same key for a given index.
	for _, who := range []string{"zombie", "replacement"} {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := s.RecordRun(j.ID, i, fmt.Sprintf("key%d", i)); err != nil {
					t.Errorf("%s record %d: %v", who, i, err)
				}
			}
		}(who)
	}
	// Meanwhile the requeue edge (coordinator drain) races the finish
	// edge (sweep completed): running admits both, but taking either
	// leaves a state from which the other is illegal.
	var transitions atomic.Int64
	for _, to := range []State{Queued, Done} {
		wg.Add(1)
		go func(to State) {
			defer wg.Done()
			if _, err := s.Transition(j.ID, to, "race"); err == nil {
				transitions.Add(1)
			}
		}(to)
	}
	wg.Wait()
	if got := transitions.Load(); got != 1 {
		t.Fatalf("%d transition winners for requeue-vs-finish, want exactly 1", got)
	}

	// Exactly-once on disk: reopen and count one durable record per
	// index, with the runs.ndjson line count matching (no duplicate
	// appends hidden behind the in-memory dedup).
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s2.Get(j.ID)
	if len(got.Runs) != n {
		t.Fatalf("replayed %d run records, want %d", len(got.Runs), n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", j.ID, "runs.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != n {
		t.Fatalf("runs.ndjson holds %d lines, want %d — a duplicate publish reached disk", lines, n)
	}
	// If the requeue edge won, the healed job must still resume: its
	// checkpoint already covers every index.
	if got.State == Queued {
		if want := n; len(got.Runs) != want {
			t.Fatalf("requeued job lost checkpoint: %d indices", len(got.Runs))
		}
	}
}

func TestIDsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Create(json.RawMessage(`{}`))
	b, _ := s.Create(json.RawMessage(`{}`))
	if a.ID == b.ID {
		t.Fatal("duplicate IDs")
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s2.Create(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID || c.ID == b.ID {
		t.Errorf("reopened store reissued ID %s", c.ID)
	}
	if got := s2.List(); len(got) != 3 || got[0].ID != a.ID || got[2].ID != c.ID {
		ids := make([]string, len(got))
		for i, j := range got {
			ids[i] = j.ID
		}
		t.Errorf("List order %v", ids)
	}
}

// TestOpenLocksDirectory: a store is its directory's only writer. A
// second Open fails, naming the directory, while the first store is
// open, and succeeds once it is closed.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second Open of a locked directory: %v, want an error naming %s", err, dir)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
