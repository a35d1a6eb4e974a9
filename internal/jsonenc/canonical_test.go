package jsonenc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/jsonenc"
	"repro/sim"
)

// scenarioResults returns AppendJSON output of every registered
// scenario at 20 jobs: the documents a worker publishes.
func scenarioResults(t testing.TB) map[string][]byte {
	t.Helper()
	docs := make(map[string][]byte)
	for _, info := range sim.Scenarios() {
		s, err := sim.ScenarioByName(info.Name, sim.WithJobs(20), sim.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if docs[info.Name], err = res.AppendJSON(nil); err != nil {
			t.Fatal(err)
		}
	}
	return docs
}

// FuzzCanonical: for any input, Canonical returns the bytes and the
// error json.Marshal(json.RawMessage(input)) returns.
func FuzzCanonical(f *testing.F) {
	for _, doc := range scenarioResults(f) {
		f.Add(doc)
	}
	for _, seed := range []string{
		" {\"a\":1}", "{\"a\":1}\n", "[1, 2]", "{\"a\" :1}",
		`"a<b"`, `"a>b"`, `{"a&b":0}`, "\"line\u2028sep\u2029par\"",
		"\"\xff\xfe\"", "\"\xed\xa0\x80\"", "\"tab\there\"", "\"\x7f\"", "\x00",
		`"caf\u00e9"`, `"café"`, `"a\/b"`, `"é😀"`, `"\u00g9"`, `"\x"`, `"\u12"`,
		`-0`, `1E+2`, `01`, `1.`, `-`, `-1.5e-10`, `[0,-0.0,1e5,2E-3]`, `.5`, `1e`,
		``, `{}x`, `[1]]`, `{"a":1}{}`, `true`, `nul`, `{"a"}`, `{"a":}`, `[1,]`, `{,}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := jsonenc.Canonical(doc)
		want, wantErr := json.Marshal(json.RawMessage(doc))
		if !bytes.Equal(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("Canonical(%q) = %q, %v; json.Marshal = %q, %v", doc, got, err, want, wantErr)
		}
	})
}

// TestCanonicalKeepsResults: every registered scenario's AppendJSON
// output comes back as the same slice, not a copy, and the scan
// allocates nothing, so a worker's publish takes the one-scan path.
func TestCanonicalKeepsResults(t *testing.T) {
	for name, doc := range scenarioResults(t) {
		got, err := jsonenc.Canonical(doc)
		if err != nil || len(got) != len(doc) || &got[0] != &doc[0] {
			t.Fatalf("%s: Canonical copied or refused AppendJSON output (err %v)", name, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { jsonenc.Canonical(doc) }); allocs != 0 {
			t.Fatalf("%s: Canonical allocated %.1f times on AppendJSON output", name, allocs)
		}
	}
}
