// Process-level tests for simd: they build the real binary, drive it
// over HTTP, and — for the durability contract — SIGKILL it mid-sweep
// and require the resumed merged report to be byte-identical to an
// uninterrupted run. CI's simd-smoke job runs exactly these.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/sim"
)

var simdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "simd-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simdBin = filepath.Join(dir, "simd")
	out, err := exec.Command("go", "build", "-o", simdBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building simd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// simdProc is one running simd instance.
type simdProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startSimd launches simd on a free port over the given store and waits
// for its listen line.
func startSimd(t *testing.T, store string) *simdProc {
	t.Helper()
	cmd := exec.Command(simdBin, "-addr", "127.0.0.1:0", "-store", store)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "simd listening on ") {
				fields := strings.Fields(line)
				addrCh <- fields[3]
				break
			}
		}
		// Drain the rest so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr := <-addrCh:
		p := &simdProc{cmd: cmd, base: "http://" + addr}
		t.Cleanup(func() {
			if p.cmd.ProcessState == nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		})
		return p
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("simd never reported its listen address")
		return nil
	}
}

// kill9 delivers SIGKILL — no drain, no goodbye — and reaps the child.
func (p *simdProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

func httpJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

type jobView struct {
	ID            string          `json:"id"`
	State         string          `json:"state"`
	RunsTotal     int             `json:"runs_total"`
	RunsCompleted int             `json:"runs_completed"`
	Spec          json.RawMessage `json:"spec"`
}

func submitSpec(t *testing.T, base, spec string) jobView {
	t.Helper()
	var v jobView
	if code := httpJSON(t, "POST", base+"/v1/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return v
}

// waitDone polls the job until it is done (failing fast on failed or
// canceled) and returns the result document.
func waitDone(t *testing.T, base, id string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var v jobView
		httpJSON(t, "GET", base+"/v1/jobs/"+id, "", &v)
		switch v.State {
		case "done":
			resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result: status %d", resp.StatusCode)
			}
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return data
		case "failed", "canceled":
			t.Fatalf("job %s ended %s", id, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestSmokeSubmitMatchesDirectRun is CI's smoke: submit a 1k-job
// scenario over HTTP, poll to completion, and require the returned
// result JSON to match a direct sim.Run of the same spec.
func TestSmokeSubmitMatchesDirectRun(t *testing.T) {
	p := startSimd(t, t.TempDir())
	v := submitSpec(t, p.base, `{"scenario":"baseline-f3","jobs":1000,"seed":5}`)
	data := waitDone(t, p.base, v.ID, 4*time.Minute)

	var rep struct {
		EngineVersion string `json:"engine_version"`
		Runs          []struct {
			Seed   uint64          `json:"seed"`
			Result json.RawMessage `json:"result"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.EngineVersion != sim.Version {
		t.Errorf("engine_version %q, want %q", rep.EngineVersion, sim.Version)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Seed != 5 {
		t.Fatalf("unexpected runs %+v", rep.Runs)
	}

	s, err := sim.ScenarioByName("baseline-f3", sim.WithJobs(1000), sim.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Runs[0].Result, want) {
		t.Error("simd result differs from a direct sim.Run of the same spec")
	}
}

// TestKillNineMidSweepResumesByteIdentical is the acceptance test for
// the durability contract: SIGKILL simd after a random number of a
// sweep's runs have checkpointed, restart it over the same store, and
// require the resumed job's merged report to be byte-identical to the
// same sweep run uninterrupted.
func TestKillNineMidSweepResumesByteIdentical(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":800,"runs":6,"seed":9}`

	// Reference: the same spec, uninterrupted, in a fresh store.
	ref := startSimd(t, t.TempDir())
	rv := submitSpec(t, ref.base, spec)
	want := waitDone(t, ref.base, rv.ID, 4*time.Minute)
	ref.kill9(t)

	store := t.TempDir()
	p := startSimd(t, store)
	v := submitSpec(t, p.base, spec)

	// SIGKILL once a random number of runs have durably completed.
	k := 1 + rand.Intn(5)
	t.Logf("killing after %d checkpointed runs", k)
	deadline := time.Now().Add(4 * time.Minute)
	for {
		var jv jobView
		httpJSON(t, "GET", p.base+"/v1/jobs/"+v.ID, "", &jv)
		if jv.RunsCompleted >= k || jv.State == "done" {
			t.Logf("interrupting at state %s with %d/%d runs", jv.State, jv.RunsCompleted, jv.RunsTotal)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoints never appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill9(t)

	// Restart over the same store: the job must be requeued, resumed,
	// and merged identically.
	p2 := startSimd(t, store)
	got := waitDone(t, p2.base, v.ID, 4*time.Minute)
	if !bytes.Equal(got, want) {
		t.Error("resumed merged report differs from the uninterrupted run")
	}

	// The transition log must show the recovery edge.
	var full struct {
		Transitions []struct {
			To     string `json:"to"`
			Reason string `json:"reason"`
		} `json:"transitions"`
	}
	httpJSON(t, "GET", p2.base+"/v1/jobs/"+v.ID, "", &full)
	var recovered bool
	for _, tr := range full.Transitions {
		if tr.To == "queued" && strings.Contains(tr.Reason, "recovered") {
			recovered = true
		}
	}
	if !recovered {
		t.Logf("transitions: %+v", full.Transitions)
		t.Log("no recovery transition (job may have finished before the kill) — byte-identity still verified")
	}
}

// TestSIGTERMDrainsGracefully sends SIGTERM mid-job and expects a clean
// exit with the job requeued for the next process.
func TestSIGTERMDrainsGracefully(t *testing.T) {
	store := t.TempDir()
	p := startSimd(t, store)
	v := submitSpec(t, p.base, `{"scenario":"baseline-f3","jobs":20000,"runs":3,"seed":2}`)

	// Let it start running.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var jv jobView
		httpJSON(t, "GET", p.base+"/v1/jobs/"+v.ID, "", &jv)
		if jv.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("simd exited dirty after SIGINT: %v", err)
		}
	case <-time.After(2 * time.Minute):
		p.cmd.Process.Kill()
		t.Fatal("simd never drained")
	}

	// The next process must see the job queued (or already resumed).
	p2 := startSimd(t, store)
	waitDone(t, p2.base, v.ID, 4*time.Minute)
}

// TestStalledRequestLineIsClosed: a client that sends half a request
// line and then nothing has its connection closed once the header
// timeout passes, instead of holding the connection and its handler
// goroutine for as long as it likes.
func TestStalledRequestLineIsClosed(t *testing.T) {
	p := startSimd(t, t.TempDir())
	conn, err := net.Dial("tcp", strings.TrimPrefix(p.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/jobs HT")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	elapsed := time.Since(start).Round(time.Millisecond)
	if err != nil {
		t.Fatalf("after %s: %v; want the server to close the connection", elapsed, err)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("closed after %s, before the %s header timeout: %q", elapsed, readHeaderTimeout, reply)
	}
	t.Logf("closed after %s with %q", elapsed, bytes.SplitN(reply, []byte("\r\n"), 2)[0])
}
