package simsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/sim"
)

// FuzzReport: for up to 8 JSON documents published as run results, the
// report streamed from the cache is byte-identical to json.Marshal of a
// Report holding the documents as published. The input's documents are
// separated by NUL bytes, which no JSON document contains; invalid ones
// are skipped, as the publish route refuses them.
func FuzzReport(f *testing.F) {
	for _, seed := range []string{
		`{"events":1,"makespan":2.5}`,
		" { \"a\" : [ 1 , 2 ] ,\n\t\"b\" : { } } \x00  null  ",
		`{"html":"<b>&amp;</b>","tag":">"}` + "\x00\"line\u2028sep\u2029par\"",
		"\"\xff\xfe\"\x00{\"k\":\"\xc3\x28\"}\x00[\"\xed\xa0\x80\"]",
		"not json\x00{}\x00[]\x00true\x00-1.5e10\x00\"\\u003c\\/\"",
	} {
		f.Add([]byte(seed))
	}
	cache, err := NewCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	sp := sim.JobSpec{Scenario: "baseline-f3", Seed: 7, Runs: 8}.Normalize()
	raw, err := sp.MarshalNormalized()
	if err != nil {
		f.Fatal(err)
	}
	h, err := sp.SpecHash()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rep := Report{SpecHash: h, EngineVersion: sim.Version, Spec: raw, Runs: []ReportRun{}}
		var keys []string
		for _, doc := range bytes.Split(data, []byte{0}) {
			if len(keys) == 8 {
				break
			}
			if !json.Valid(doc) {
				continue
			}
			entry, err := canonical(doc)
			if err != nil {
				t.Fatalf("canonical(%q): %v", doc, err)
			}
			key := fmt.Sprintf("run%d", len(keys))
			if err := cache.Put(key, entry); err != nil {
				t.Fatal(err)
			}
			rep.Runs = append(rep.Runs, ReportRun{Index: len(keys), Seed: sp.RunSeed(len(keys)), Result: doc})
			keys = append(keys, key)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := cache.writeReport(&got, sp, raw, keys); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("streamed report differs from json.Marshal:\n got %q\nwant %q", got.Bytes(), want)
		}
	})
}
