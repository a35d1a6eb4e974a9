package coord

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// walLedger builds a WAL-backed ledger at path, replaying whatever the
// file already holds.
func walLedger(t *testing.T, path string, n int, lease time.Duration, clk *fakeClock) *Ledger {
	t.Helper()
	wal, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	l := NewLedger(n, lease)
	l.SetClock(clk.Now)
	if err := l.Recover(wal, recs); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestWALReplayResumesMidFlightSweep is the restart scenario end to
// end: a coordinator with live leases, completed indices, and a fenced
// zombie dies; the replayed ledger carries all three forward — the live
// lease keeps working, the done indices are never re-issued, and the
// zombie stays fenced.
func TestWALReplayResumesMidFlightSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.ndjson")
	clk := newFakeClock()

	l1 := walLedger(t, path, 10, time.Minute, clk)
	zombie, ok := l1.Claim("zombie", 3) // [0,3)
	if !ok {
		t.Fatal("no claim")
	}
	if err := l1.CompleteIndex(zombie.ID, 0); err != nil {
		t.Fatal(err)
	}
	live, ok := l1.Claim("live", 3) // [3,6)
	if !ok {
		t.Fatal("no claim")
	}
	if err := l1.CompleteIndex(live.ID, 3); err != nil {
		t.Fatal(err)
	}
	clk.Advance(90 * time.Second) // zombie AND live both past their lease
	if _, err := l1.Renew(live.ID); err == nil {
		t.Fatal("renew after expiry should fence")
	}
	// live re-claims and keeps renewing; zombie stays dead.
	live2, ok := l1.Claim("live", 3) // [1,2] + ... first available run
	if !ok {
		t.Fatal("no re-claim")
	}

	// The coordinator dies here. A new process replays the WAL and
	// marks done the indices the checkpoint log holds.
	l2 := walLedger(t, path, 10, time.Minute, clk)
	l2.MarkDone(0, 3)

	done, leased, avail := l2.Counts()
	if done != 2 || leased != live2.End-live2.Start || avail != 8-leased {
		t.Fatalf("replayed counts done=%d leased=%d avail=%d", done, leased, avail)
	}
	// The pre-restart zombie is still fenced.
	if _, err := l2.Renew(zombie.ID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie renew after replay: %v, want ErrLeaseLost", err)
	}
	if err := l2.CompleteIndex(zombie.ID, 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie publish after replay: %v, want ErrLeaseLost", err)
	}
	// The live claim's lease survived the restart.
	if err := l2.CompleteIndex(live2.ID, live2.Start); err != nil {
		t.Fatalf("live claim lost across restart: %v", err)
	}
	// Claim IDs are never reissued: a fresh claim must not collide with
	// any pre-restart ID.
	fresh, ok := l2.Claim("w", 2)
	if !ok {
		t.Fatal("no claim on replayed ledger")
	}
	for _, old := range []string{zombie.ID, live.ID, live2.ID} {
		if fresh.ID == old {
			t.Fatalf("replayed ledger reissued claim ID %s", old)
		}
	}
}

// TestWALTornTailTolerated: a crash mid-append leaves a partial final
// line. Replay drops it, truncates the file, and subsequent appends
// produce a log a third open reads cleanly.
func TestWALTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.ndjson")
	clk := newFakeClock()

	l1 := walLedger(t, path, 4, time.Minute, clk)
	cl, _ := l1.Claim("w", 2)

	// Tear the tail: a torn record and no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"release","claim":"` + cl.ID + `","rea`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := walLedger(t, path, 4, time.Minute, clk)
	if _, leased, _ := l2.Counts(); leased != 2 {
		t.Fatalf("after torn tail: leased=%d, want 2", leased)
	}
	// Appends after the truncation must not fuse with the dropped tail.
	if err := l2.Complete(cl.ID); err != nil {
		t.Fatal(err)
	}
	l3 := walLedger(t, path, 4, time.Minute, clk)
	if _, leased, avail := l3.Counts(); leased != 0 || avail != 4 {
		t.Fatalf("third replay: leased=%d available=%d, want 0/4", leased, avail)
	}
}

// TestWALMidFileCorruptionFailsLoudly: a malformed line with durable
// successors is not a torn tail — it is corruption, and replay must
// refuse rather than silently skip transitions.
func TestWALMidFileCorruptionFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.ndjson")
	clk := newFakeClock()
	l1 := walLedger(t, path, 4, time.Minute, clk)
	cl, _ := l1.Claim("w", 2)
	if _, err := l1.Renew(cl.ID); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	lines[0] = "{torn garbage\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption: err = %v, want corrupt-record failure", err)
	}
}

// TestWALQuarantineSurvivesRestart: a poison verdict is durable — the
// replayed ledger is immediately fatal with the same per-index
// diagnosis, and hands out no work.
func TestWALQuarantineSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.ndjson")
	clk := newFakeClock()

	l1 := walLedger(t, path, 3, time.Second, clk)
	l1.SetMaxAttempts(2)
	cl, _ := l1.Claim("crasher", 1)
	if err := l1.Fail(cl.ID, 0, "panic: bad scenario"); err != nil {
		t.Fatal(err)
	}
	cl2, _ := l1.Claim("crasher", 1)
	if err := l1.Fail(cl2.ID, 0, "panic: bad scenario"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l1.Fatal():
	default:
		t.Fatal("ledger not fatal after exhausting the attempt budget")
	}

	l2 := walLedger(t, path, 3, time.Second, clk)
	select {
	case <-l2.Fatal():
	default:
		t.Fatal("replayed ledger lost the poison verdict")
	}
	err := l2.FatalErr()
	for _, want := range []string{"poisoned", "run 0", "2 failed attempts", "panic: bad scenario"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnosis %q missing %q", err, want)
		}
	}
	if _, ok := l2.Claim("w", 1); ok {
		t.Fatal("fatal ledger handed out work")
	}
}

// TestWALGeometryMismatchFailsLoudly: a WAL referencing indices outside
// the ledger's run count belongs to a different sweep and must not
// replay.
func TestWALGeometryMismatchFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.ndjson")
	clk := newFakeClock()
	l1 := walLedger(t, path, 8, time.Minute, clk)
	l1.Claim("w", 8)

	wal, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	small := NewLedger(4, time.Minute)
	if err := small.Recover(wal, recs); err == nil {
		t.Fatal("replaying an 8-run WAL into a 4-run ledger should fail")
	}
}

// TestWALReplaysDoneRecords: a WAL written while index completions were
// still logged replays into the state it always described — the done
// records count, and the fences and failures around them charge only
// the indices their claims still leased.
func TestWALReplaysDoneRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.ndjson")
	const wal = `{"op":"claim","claim":"c000001","worker":"a","end":3,"expires_ms":1060000}
{"op":"done","claim":"c000001"}
{"op":"claim","claim":"c000002","worker":"b","start":3,"end":6,"expires_ms":1060000}
{"op":"done","claim":"c000002","index":3}
{"op":"done","claim":"c000002","index":4}
{"op":"fail","claim":"c000001","index":1,"reason":"worker \"a\": boom"}
{"op":"fence","claim":"c000001","reason":"lease c000001 expired (worker \"a\" stopped renewing)"}
{"op":"claim","claim":"c000003","worker":"c","start":1,"end":3,"expires_ms":1120000}
{"op":"release","claim":"c000002","reason":"completed"}
{"op":"renew","claim":"c000003","expires_ms":1130000}
`
	if err := os.WriteFile(path, []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	l := walLedger(t, path, 8, time.Minute, newFakeClock())
	want := LedgerView{
		Runs: 8, Done: 3, Leased: 2, Available: 3, MaxAttempts: DefaultMaxAttempts, Fenced: 2,
		Claims: []ClaimView{{ID: "c000003", Worker: "c", Start: 1, End: 3, Expires: time.UnixMilli(1130000)}},
		Troubled: []IndexView{
			{Index: 1, State: "leased", Attempts: 1, LastFailure: `worker "a": boom`},
			{Index: 2, State: "leased", Attempts: 1, LastFailure: `lease c000001 expired (worker "a" stopped renewing)`},
		},
	}
	if got := l.View(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed view\n got %+v\nwant %+v", got, want)
	}
	if cl, ok := l.Claim("d", 8); !ok || cl.ID != "c000004" || cl.Start != 5 || cl.End != 8 {
		t.Fatalf("claim after replay: %+v, want c000004 over [5,8)", cl)
	}
}

// TestCompletionsAreNotLogged: runs.ndjson is the only completion
// record, so neither a published index nor a checkpointed one adds a
// line to the WAL.
func TestCompletionsAreNotLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.ndjson")
	l := walLedger(t, path, 4, time.Minute, newFakeClock())
	cl, _ := l.Claim("w", 2)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CompleteIndex(cl.ID, 0); err != nil {
		t.Fatal(err)
	}
	l.MarkDone(1, 2)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("completions appended %q", after[len(before):])
	}
	if done, _, _ := l.Counts(); done != 3 {
		t.Fatalf("done %d, want 3", done)
	}
}

// FuzzLedgerReplay is the proof that live transitions and replay share
// one apply and that every index has one owner. It decodes the input
// into operations — claim, renew, complete index, fail, complete claim,
// clock advance, three bytes each — and runs them on a WAL-backed
// ledger with a small attempt budget. After every step no index that
// is not done may be held by two live claims. At the end a second
// ledger replays the WAL and, as a restarted coordinator does, marks
// done the indices the live ledger completed; the two must then agree
// on every index not done (state, owner, attempts, last failure), on
// the live claims, on the fenced-claim count and on whether the sweep
// is fatal. Their diagnoses may differ: the live one is frozen at the
// first quarantine.
func FuzzLedgerReplay(f *testing.F) {
	const (
		doClaim         = iota // worker, max
		doRenew                // claim
		doCompleteIndex        // claim, index
		doFail                 // claim, index
		doComplete             // claim
		doAdvance              // quarter-leases
		numDo
	)
	// The double lease: a leases [0,4) and fails index 1, b leases
	// index 1, then a completes — or expires — and c asks for [0,4).
	f.Add([]byte{
		doClaim, 0, 3, doFail, 0, 1, doAdvance, 2, 0, doClaim, 1, 0,
		doComplete, 0, 0, doClaim, 2, 3,
	})
	f.Add([]byte{
		doClaim, 0, 3, doFail, 0, 1, doAdvance, 2, 0, doClaim, 1, 0,
		doAdvance, 3, 0, doClaim, 2, 3,
	})
	// Expiries up to the attempt budget, then a quarantine.
	f.Add([]byte{
		doClaim, 0, 1, doCompleteIndex, 0, 0, doAdvance, 5, 0, doClaim, 1, 1,
		doAdvance, 5, 0, doClaim, 2, 1, doFail, 2, 1,
	})
	// A renewed lease replays with its new deadline.
	f.Add([]byte{doClaim, 0, 0, doAdvance, 1, 0, doRenew, 0, 0})

	const n, lease, budget = 6, time.Second, 2
	f.Fuzz(func(t *testing.T, prog []byte) {
		path := filepath.Join(t.TempDir(), "claims.ndjson")
		clk := newFakeClock()
		l := walLedger(t, path, n, lease, clk)
		l.SetMaxAttempts(budget)
		var ids []string // every claim ID issued, live or not
		pick := func(b byte) string {
			if len(ids) == 0 {
				return "c000001"
			}
			return ids[int(b)%len(ids)]
		}
		for step := 0; step+3 <= len(prog) && step < 3*64; step += 3 {
			op, a, b := prog[step]%numDo, prog[step+1], prog[step+2]
			switch op {
			case doClaim:
				if cl, ok := l.Claim(fmt.Sprintf("w%d", a%3), 1+int(b%4)); ok {
					ids = append(ids, cl.ID)
				}
			case doRenew:
				l.Renew(pick(a))
			case doCompleteIndex:
				l.CompleteIndex(pick(a), int(b)%n)
			case doFail:
				l.Fail(pick(a), int(b)%n, fmt.Sprintf("reason %d", b%3))
			case doComplete:
				l.Complete(pick(a))
			case doAdvance:
				clk.Advance(time.Duration(a%8) * lease / 4)
			}
			checkOneOwner(t, l, step/3)
		}

		live := holders(l) // reaps at the final instant, before the WAL is read
		wal, recs, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		r := NewLedger(n, lease)
		r.SetClock(clk.Now)
		r.SetMaxAttempts(budget)
		if err := r.Recover(wal, recs); err != nil {
			t.Fatal(err)
		}
		var done []int
		for i, st := range l.state {
			if st == idxDone {
				done = append(done, i)
			}
		}
		r.MarkDone(done...)
		replayed := holders(r)
		for i := 0; i < n; i++ {
			if l.state[i] == idxDone {
				continue
			}
			if r.state[i] != l.state[i] || !slices.Equal(replayed[i], live[i]) || r.attempts[i] != l.attempts[i] || r.lastFail[i] != l.lastFail[i] {
				t.Fatalf("index %d: live state %s held by %v, %d attempts (%q); replayed state %s held by %v, %d attempts (%q)",
					i, stateNames[l.state[i]], live[i], l.attempts[i], l.lastFail[i],
					stateNames[r.state[i]], replayed[i], r.attempts[i], r.lastFail[i])
			}
		}
		lv, rv := l.View(), r.View()
		if !reflect.DeepEqual(rv.Claims, lv.Claims) || rv.Fenced != lv.Fenced || rv.Done != lv.Done {
			t.Fatalf("replayed claims %+v (%d fenced, %d done), live %+v (%d fenced, %d done)", rv.Claims, rv.Fenced, rv.Done, lv.Claims, lv.Fenced, lv.Done)
		}
		if (r.FatalErr() == nil) != (l.FatalErr() == nil) {
			t.Fatalf("replayed fatal %v, live fatal %v", r.FatalErr(), l.FatalErr())
		}
	})
}

// holders lists, per index, the live claims that may publish it (Owns).
func holders(l *Ledger) [][]string {
	v := l.View()
	h := make([][]string, v.Runs)
	for _, c := range v.Claims {
		for i := c.Start; i < c.End; i++ {
			if l.Owns(c.ID, i) == nil {
				h[i] = append(h[i], c.ID)
			}
		}
	}
	return h
}

// checkOneOwner: a leased index has exactly one live claim that may
// publish it, an available or quarantined index none, and the
// population counts match the index states.
func checkOneOwner(t *testing.T, l *Ledger, step int) {
	t.Helper()
	h := holders(l)
	var count [len(stateNames)]int
	for i, st := range l.state {
		count[st]++
		want := 0
		switch st {
		case idxDone:
			continue
		case idxLeased:
			want = 1
		}
		if len(h[i]) != want {
			t.Fatalf("step %d: %s index %d held by %v", step, stateNames[st], i, h[i])
		}
	}
	v := l.View()
	if got := [...]int{v.Available, v.Leased, v.Done, v.Quarantined}; got != count {
		t.Fatalf("step %d: view counts %v, index states %v", step, got, count)
	}
}
