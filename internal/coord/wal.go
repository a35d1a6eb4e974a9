package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/durable"
)

// The ledger's write-ahead log. Every claim-state transition but an
// index completion is appended as one fsynced NDJSON record before it
// is applied, so a coordinator restarted over the same store replays
// the file and resumes the sweep with live leases, permanent claim-ID
// fences, per-index attempt counts, and quarantine verdicts intact;
// completions come from the job's checkpoint log instead. Replay and
// append go through internal/durable, the same discipline as the job
// store: a record is durable only once its trailing newline is on disk,
// a torn final line is dropped and truncated so the next append starts
// clean, and a malformed line with durable successors fails loudly as
// corruption.

// WAL record operations.
const (
	opClaim      = "claim"      // a range was leased: Claim, Worker, Start, End, Expires
	opRenew      = "renew"      // a lease was extended: Claim, Expires
	opDone       = "done"       // one index completed: Index; applied, never appended, replayed from older WALs
	opRelease    = "release"    // a claim retired voluntarily; indices it still leases returned
	opFence      = "fence"      // a lease expired; indices it still leased returned, attempts bumped
	opFail       = "fail"       // one index its claim leases failed: Claim, Index, Reason
	opQuarantine = "quarantine" // an index hit the attempt budget: Index, Attempts, Reason
)

// WALRecord is one ledger transition on disk. Which fields are
// meaningful depends on Op (see the op constants); zero values of the
// others are omitted.
type WALRecord struct {
	Op       string `json:"op"`
	Claim    string `json:"claim,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Start    int    `json:"start,omitempty"`
	End      int    `json:"end,omitempty"`
	Index    int    `json:"index,omitempty"`
	Expires  int64  `json:"expires_ms,omitempty"` // lease deadline, unix milliseconds
	Attempts int    `json:"attempts,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// WAL is an append-only, fsynced NDJSON file of ledger transitions.
// Appends are serialized by the ledger's mutex; the WAL itself adds no
// locking and holds no file handle between appends.
type WAL struct {
	path string
}

// OpenWAL replays the WAL at path — tolerating a torn final line, which
// is truncated, and failing loudly on mid-file corruption (see
// durable.Replay) — and returns it ready for appending. A missing file
// yields an empty record slice and a fresh WAL.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	var recs []WALRecord
	err := durable.Replay(path, func(line []byte) error {
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Op == "" {
			return errors.New("record has no op")
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("coord: wal: %w", err)
	}
	return &WAL{path: path}, recs, nil
}

// Append durably writes one record (durable.Append). The record is the
// transition's durability point — the ledger applies a transition only
// after its record is on disk.
func (w *WAL) Append(rec WALRecord) error {
	if err := durable.Append(w.path, rec); err != nil {
		return fmt.Errorf("coord: wal: %w", err)
	}
	return nil
}

// Close is a no-op: every Append opens and closes the file itself.
func (w *WAL) Close() error { return nil }
