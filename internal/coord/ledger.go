package coord

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultLease is the claim lease duration used when none is
// configured: long enough that a healthy worker heartbeating at a
// third of the lease never loses a claim to scheduling jitter, short
// enough that a crashed worker's range is re-issued promptly.
const DefaultLease = 15 * time.Second

// DefaultMaxAttempts is the per-index attempt budget used when none is
// configured: a run whose every claimant dies (lease expiry) or fails
// (reported error) this many times is quarantined and the job fails
// loudly with a per-index diagnosis instead of livelocking workers on
// a poisoned run.
const DefaultMaxAttempts = 5

// ErrLeaseLost reports that a claim ID no longer holds its lease: the
// lease expired (and the range was returned to the pool), the claim was
// completed, or the ID was never issued by this ledger. A worker
// receiving it abandons the claim; everything it already published is
// durable and heals by cache probe.
var ErrLeaseLost = errors.New("coord: claim lease lost")

// index states inside the ledger.
const (
	idxAvailable uint8 = iota
	idxLeased
	idxDone
	idxQuarantined
)

// Claim is one leased index range [Start, End).
type Claim struct {
	ID      string
	Worker  string
	Start   int
	End     int
	Expires time.Time
}

type claimRec struct {
	num     int // the number in the claim's ID, recorded as the owner of each index it leases
	worker  string
	start   int
	end     int
	expires time.Time
}

func (c *claimRec) claim(id string) Claim {
	return Claim{ID: id, Worker: c.worker, Start: c.start, End: c.end, Expires: c.expires}
}

// Ledger tracks one sweep's index space through the claim state
// machine:
//
//	available ──claim──→ leased ──publish──→ done
//	    ↑                  │  │
//	    └──lease expiry────┘  └─K failures─→ quarantined  (job fails)
//	       (per unfinished index; attempts++, claim ID fenced)
//
// Each leased index has exactly one owning claim, and a release, fence
// or reported failure touches only the indices its claim still leases.
// All methods are safe for concurrent use. Expired leases are reaped
// lazily on every call that inspects claim state, so correctness never
// depends on a background timer: a range held by a dead worker is
// re-issued the moment a live worker asks for work after the expiry
// instant.
//
// Every change of state is one WALRecord applied by applyLocked: a live
// method checks its preconditions, builds the record, appends it to the
// WAL when one is attached (see Recover), and applies it; replay
// applies the same records. A coordinator restarted over the same store
// therefore resumes mid-flight: live leases keep their deadlines, every
// claim ID ever fenced still answers ErrLeaseLost (IDs are never
// reissued — the WAL carries the counter), and attempt counts survive
// toward the quarantine budget. Completions are the one transition not
// appended: the job's checkpoint log holds them, and the coordinator
// marks its indices done (MarkDone) after every replay.
type Ledger struct {
	mu          sync.Mutex
	lease       time.Duration
	maxAttempts int
	now         func() time.Time // injectable clock for fault-injection tests
	state       []uint8
	owner       []int    // number of the claim leasing each index; 0 unless leased
	attempts    []int    // failed attempts per index (expiry or reported failure)
	lastFail    []string // most recent failure diagnosis per index
	count       [4]int   // indices per state
	claims      map[string]*claimRec
	wal         *WAL
	nextID      int
	cursor      int // lowest index that might be available
	doneCh      chan struct{}
	closed      bool
	fatalCh     chan struct{}
	fatalErr    error
}

// NewLedger tracks n indices, all initially available, under the given
// lease duration (0 selects DefaultLease) and the default attempt
// budget (see SetMaxAttempts).
func NewLedger(n int, lease time.Duration) *Ledger {
	if lease <= 0 {
		lease = DefaultLease
	}
	l := &Ledger{
		lease:       lease,
		maxAttempts: DefaultMaxAttempts,
		now:         time.Now,
		state:       make([]uint8, n),
		owner:       make([]int, n),
		attempts:    make([]int, n),
		lastFail:    make([]string, n),
		claims:      make(map[string]*claimRec),
		doneCh:      make(chan struct{}),
		fatalCh:     make(chan struct{}),
	}
	l.count[idxAvailable] = n
	if n == 0 {
		l.closed = true
		close(l.doneCh)
	}
	return l
}

// SetMaxAttempts replaces the per-index attempt budget (k <= 0 selects
// DefaultMaxAttempts). Must be called before the ledger is shared.
func (l *Ledger) SetMaxAttempts(k int) {
	if k <= 0 {
		k = DefaultMaxAttempts
	}
	l.maxAttempts = k
}

// Recover replays previously logged transitions into the ledger and
// attaches the WAL for future appends. Must be called before the
// ledger is shared. Replay applies each record without re-logging it;
// a record that cannot belong to this ledger (an index outside its
// space, a claim ID it could not have issued) fails loudly — the WAL
// belongs to a different sweep. If replay restores a quarantined index,
// the ledger is immediately fatal — the poison verdict survives the
// restart.
func (l *Ledger) Recover(wal *WAL, recs []WALRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range recs {
		if err := l.applyLocked(rec); err != nil {
			return err
		}
	}
	l.wal = wal
	if diag := l.diagnosisLocked(); diag != nil {
		l.fatalLocked(diag)
	}
	return nil
}

// applyLocked applies one transition record; it is the only code that
// changes claim state, for live transitions and replay alike. It never
// decides quarantine: that is a live decision (quarantineLocked), logged
// as a record of its own, so replay reproduces exactly the state that
// was logged.
func (l *Ledger) applyLocked(rec WALRecord) error {
	switch rec.Op {
	case opDone, opFail, opQuarantine:
		if rec.Index < 0 || rec.Index >= len(l.state) {
			return fmt.Errorf("coord: wal: %s record index %d outside ledger of %d runs", rec.Op, rec.Index, len(l.state))
		}
	}
	i, c := rec.Index, l.claims[rec.Claim]
	switch rec.Op {
	case opClaim:
		num, err := strconv.Atoi(strings.TrimPrefix(rec.Claim, "c"))
		if err != nil || num <= 0 {
			return fmt.Errorf("coord: wal: claim record has malformed id %q", rec.Claim)
		}
		if rec.Start < 0 || rec.End > len(l.state) || rec.Start > rec.End {
			return fmt.Errorf("coord: wal: claim %s range [%d,%d) outside ledger of %d runs", rec.Claim, rec.Start, rec.End, len(l.state))
		}
		l.claims[rec.Claim] = &claimRec{num: num, worker: rec.Worker, start: rec.Start, end: rec.End, expires: time.UnixMilli(rec.Expires)}
		for j := rec.Start; j < rec.End; j++ {
			if l.state[j] == idxAvailable {
				l.moveLocked(j, idxLeased, num)
			}
		}
		l.nextID = max(l.nextID, num)
	case opRenew:
		if c != nil {
			c.expires = time.UnixMilli(rec.Expires)
		}
	case opRelease, opFence:
		if c == nil {
			break
		}
		for j := c.start; j < c.end; j++ {
			if l.owner[j] == c.num {
				if rec.Op == opFence {
					l.attempts[j]++
					l.lastFail[j] = rec.Reason
				}
				l.moveLocked(j, idxAvailable, 0)
			}
		}
		delete(l.claims, rec.Claim)
	case opDone:
		if l.state[i] != idxDone {
			l.moveLocked(i, idxDone, 0)
		}
	case opFail:
		if c != nil && l.owner[i] == c.num {
			l.attempts[i]++
			l.lastFail[i] = rec.Reason
			l.moveLocked(i, idxAvailable, 0)
		}
	case opQuarantine:
		if l.state[i] != idxDone {
			l.moveLocked(i, idxQuarantined, 0)
		}
		l.attempts[i] = max(l.attempts[i], rec.Attempts)
		l.lastFail[i] = rec.Reason
	default:
		return fmt.Errorf("coord: wal: unknown op %q", rec.Op)
	}
	return nil
}

// moveLocked moves index i to state st, leased by claim number owner (0
// for every other state), and keeps in step what follows from the move:
// the per-state counts, the claim cursor and the Done signal.
func (l *Ledger) moveLocked(i int, st uint8, owner int) {
	l.count[l.state[i]]--
	l.count[st]++
	l.state[i], l.owner[i] = st, owner
	if st == idxAvailable && i < l.cursor {
		l.cursor = i
	}
	if !l.closed && l.count[idxDone] == len(l.state) {
		l.closed = true
		close(l.doneCh)
	}
}

// commitLocked is the last step of every live transition: it appends
// rec to the attached WAL, if any, and applies it. A done record is
// applied but never appended — persist checkpoints the index in
// runs.ndjson before the ledger hears of it, so that log is the one
// completion record. An append failure — disk gone, store unwritable —
// is fatal for the sweep: the coordinator can no longer promise
// durability, so the job must fail loudly rather than continue with a
// silent hole in its recovery record. The transition still applies so
// live workers observe a consistent ledger while the job winds down.
func (l *Ledger) commitLocked(rec WALRecord) {
	if l.wal != nil && rec.Op != opDone {
		if err := l.wal.Append(rec); err != nil {
			l.fatalLocked(fmt.Errorf("coord: ledger wal append failed: %w", err))
		}
	}
	if err := l.applyLocked(rec); err != nil {
		panic(err) // live records are built from ledger state and always apply
	}
}

// quarantineLocked is the live quarantine decision after a fence or a
// failure: each index of [lo, hi) back in the pool with its attempt
// budget spent is quarantined by a record of its own, and the ledger
// turns fatal with the per-index diagnosis.
func (l *Ledger) quarantineLocked(lo, hi int) {
	for i := lo; i < hi; i++ {
		if l.state[i] == idxAvailable && l.attempts[i] >= l.maxAttempts {
			l.commitLocked(WALRecord{Op: opQuarantine, Index: i, Attempts: l.attempts[i], Reason: l.lastFail[i]})
		}
	}
	if l.fatalErr == nil && l.count[idxQuarantined] > 0 {
		l.fatalLocked(l.diagnosisLocked())
	}
}

// fatalLocked records the sweep-killing error and signals Fatal once.
func (l *Ledger) fatalLocked(err error) {
	if l.fatalErr == nil {
		l.fatalErr = err
		close(l.fatalCh)
	}
}

// diagnosisLocked builds the per-index poison report, or nil when
// nothing is quarantined.
func (l *Ledger) diagnosisLocked() error {
	var parts []string
	for i, st := range l.state {
		if st == idxQuarantined {
			parts = append(parts, fmt.Sprintf("run %d quarantined after %d failed attempts (last: %s)", i, l.attempts[i], l.lastFail[i]))
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return fmt.Errorf("coord: job poisoned: %s", strings.Join(parts, "; "))
}

// MarkDone records indices as complete without a claim — the
// registration path for indices already durable in the checkpoint log
// or the result cache, which override any replayed lease over them.
// Out-of-range and already-done indices are ignored.
func (l *Ledger) MarkDone(indices ...int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, i := range indices {
		if i >= 0 && i < len(l.state) {
			l.commitLocked(WALRecord{Op: opDone, Index: i})
		}
	}
}

// Claim leases up to max contiguous available indices (max <= 0 selects
// 1) to worker, returning ok == false when nothing is available right
// now — either every index is done, live claims cover the remainder, or
// the ledger is fatal (poisoned or unwritable) and has stopped handing
// out work.
func (l *Ledger) Claim(worker string, max int) (Claim, bool) {
	if max <= 0 {
		max = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked()
	if l.fatalErr != nil {
		return Claim{}, false
	}
	start := l.cursor
	for start < len(l.state) && l.state[start] != idxAvailable {
		start++
	}
	if start == len(l.state) {
		return Claim{}, false
	}
	end := start + 1
	for end < len(l.state) && end-start < max && l.state[end] == idxAvailable {
		end++
	}
	id := fmt.Sprintf("c%06d", l.nextID+1)
	l.commitLocked(WALRecord{Op: opClaim, Claim: id, Worker: worker, Start: start, End: end, Expires: l.now().Add(l.lease).UnixMilli()})
	l.cursor = end
	return l.claims[id].claim(id), true
}

// Renew extends a live claim's lease by the ledger's lease duration.
func (l *Ledger) Renew(id string) (Claim, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked()
	c := l.claims[id]
	if c == nil {
		return Claim{}, fmt.Errorf("renewing claim %s: %w", id, ErrLeaseLost)
	}
	l.commitLocked(WALRecord{Op: opRenew, Claim: id, Expires: l.now().Add(l.lease).UnixMilli()})
	return c.claim(id), nil
}

// coverLocked returns live claim id, reaping expired leases first,
// provided its range covers index. A zombie claim (expired, completed,
// or never issued) gets ErrLeaseLost.
func (l *Ledger) coverLocked(id string, index int) (*claimRec, error) {
	l.expireLocked()
	c := l.claims[id]
	if c == nil {
		return nil, fmt.Errorf("claim %s: %w", id, ErrLeaseLost)
	}
	if index < c.start || index >= c.end {
		return nil, fmt.Errorf("claim %s does not cover index %d [%d,%d)", id, index, c.start, c.end)
	}
	return c, nil
}

// ownsLocked is the publish fence: claim id is live and still leases
// index, or the index is already done, so a repeated publish stays
// idempotent. An index its claim failed, or that expired into another
// claim's lease, is no longer the claim's to publish.
func (l *Ledger) ownsLocked(id string, index int) error {
	c, err := l.coverLocked(id, index)
	if err != nil {
		return err
	}
	if l.owner[index] != c.num && l.state[index] != idxDone {
		return fmt.Errorf("claim %s no longer leases index %d", id, index)
	}
	return nil
}

// Owns verifies that claim id may publish index (see CompleteIndex) —
// the pre-publish fence. A zombie claim gets ErrLeaseLost.
func (l *Ledger) Owns(id string, index int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ownsLocked(id, index)
}

// CompleteIndex marks one index of a live claim done, after its result
// bytes are durable. The claim must still lease the index; completing
// an index already done is idempotent. Completing under a lost lease
// returns ErrLeaseLost (the durable bytes still heal by cache probe).
func (l *Ledger) CompleteIndex(id string, index int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ownsLocked(id, index); err != nil {
		return fmt.Errorf("completing index %d: %w", index, err)
	}
	l.commitLocked(WALRecord{Op: opDone, Index: index})
	return nil
}

// Fail reports that one index of a live claim failed to execute — the
// worker survived and diagnosed the run rather than crashing with it,
// or the server refused its result. The index returns to the pool for
// another attempt and is charged against its quarantine budget; an
// index the claim no longer leases is charged nothing. Failing under a
// lost lease returns ErrLeaseLost.
func (l *Ledger) Fail(id string, index int, reason string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, err := l.coverLocked(id, index)
	if err != nil {
		return fmt.Errorf("failing index %d: %w", index, err)
	}
	if l.owner[index] != c.num {
		return nil // done, failed before, or leased by another claim — nothing to charge
	}
	if reason == "" {
		reason = "worker reported failure"
	}
	l.commitLocked(WALRecord{Op: opFail, Claim: id, Index: index, Reason: fmt.Sprintf("worker %q: %s", c.worker, reason)})
	l.quarantineLocked(index, index+1)
	return nil
}

// Complete retires a claim whose work is finished. Indices it still
// leases return to the available pool uncharged (a worker that
// discovered it cannot finish hands the rest back early).
func (l *Ledger) Complete(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked()
	if l.claims[id] == nil {
		return fmt.Errorf("completing claim %s: %w", id, ErrLeaseLost)
	}
	l.commitLocked(WALRecord{Op: opRelease, Claim: id, Reason: "completed"})
	return nil
}

// expireLocked reaps every claim past its lease deadline, returning the
// indices it still leases to the pool, fencing the claim's ID forever,
// and charging each of those indices one attempt — a claimant that
// stopped renewing is presumed dead, and a run that kills every
// claimant must eventually quarantine instead of livelocking the fleet.
func (l *Ledger) expireLocked() {
	now := l.now()
	for id, c := range l.claims {
		if now.After(c.expires) {
			l.commitLocked(WALRecord{Op: opFence, Claim: id, Reason: fmt.Sprintf("lease %s expired (worker %q stopped renewing)", id, c.worker)})
			l.quarantineLocked(c.start, c.end)
		}
	}
}

// Done is closed once every index is complete.
func (l *Ledger) Done() <-chan struct{} { return l.doneCh }

// Fatal is closed when the sweep can never complete: an index was
// quarantined (poisoned run) or the WAL became unwritable. FatalErr
// carries the diagnosis.
func (l *Ledger) Fatal() <-chan struct{} { return l.fatalCh }

// FatalErr returns the sweep-killing diagnosis once Fatal is closed.
func (l *Ledger) FatalErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fatalErr
}

// Counts reports the ledger's index population: done, currently leased,
// and available (expired leases are reaped first). Quarantined indices
// are in none of the three buckets — they are no longer claimable.
func (l *Ledger) Counts() (done, leased, available int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked()
	return l.count[idxDone], l.count[idxLeased], l.count[idxAvailable]
}

// ClaimView is one live claim in a ledger snapshot.
type ClaimView struct {
	ID      string    `json:"id"`
	Worker  string    `json:"worker"`
	Start   int       `json:"start"`
	End     int       `json:"end"`
	Expires time.Time `json:"expires"`
}

// IndexView is one troubled index (failed attempts or quarantined) in a
// ledger snapshot.
type IndexView struct {
	Index       int    `json:"index"`
	State       string `json:"state"`
	Attempts    int    `json:"attempts"`
	LastFailure string `json:"last_failure,omitempty"`
}

// LedgerView is a point-in-time snapshot of the ledger for debugging a
// stuck or failing distributed job, served by GET /v1/jobs/{id}/claims.
type LedgerView struct {
	Runs        int         `json:"runs"`
	Done        int         `json:"done"`
	Leased      int         `json:"leased"`
	Available   int         `json:"available"`
	Quarantined int         `json:"quarantined"`
	MaxAttempts int         `json:"max_attempts"`
	Fenced      int         `json:"fenced_claims"` // claim IDs issued and no longer live
	Claims      []ClaimView `json:"claims"`
	Troubled    []IndexView `json:"troubled,omitempty"`
}

var stateNames = [...]string{"available", "leased", "done", "quarantined"}

// View snapshots the ledger (expired leases are reaped first): index
// population, every live claim with owner and lease deadline, and every
// index carrying failed attempts.
func (l *Ledger) View() LedgerView {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked()
	v := LedgerView{
		Runs:        len(l.state),
		Done:        l.count[idxDone],
		Leased:      l.count[idxLeased],
		Available:   l.count[idxAvailable],
		Quarantined: l.count[idxQuarantined],
		MaxAttempts: l.maxAttempts,
		Fenced:      l.nextID - len(l.claims),
		Claims:      make([]ClaimView, 0, len(l.claims)),
	}
	for id, c := range l.claims {
		v.Claims = append(v.Claims, ClaimView{ID: id, Worker: c.worker, Start: c.start, End: c.end, Expires: c.expires})
	}
	sort.Slice(v.Claims, func(i, j int) bool { return v.Claims[i].ID < v.Claims[j].ID })
	for i, n := range l.attempts {
		if n > 0 || l.state[i] == idxQuarantined {
			v.Troubled = append(v.Troubled, IndexView{Index: i, State: stateNames[l.state[i]], Attempts: n, LastFailure: l.lastFail[i]})
		}
	}
	return v
}
