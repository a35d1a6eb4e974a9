package trace

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to Read. Every input either
// errors or reads to a trace whose Write bytes read back to the same
// Write bytes; no input panics.
func FuzzReadTrace(f *testing.F) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"id":"j000000","structure":"ST","arrival_sec":0,"priority":1,"tasks":[null]}`))
	f.Add([]byte(jobPriority99))
	f.Add([]byte(jobPriorityMissing))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tr.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write, read, write is not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
