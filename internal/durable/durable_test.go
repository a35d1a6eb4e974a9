package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// replayJSON replays path with a callback that accepts valid JSON, and
// returns the accepted lines.
func replayJSON(path string) ([]string, error) {
	var lines []string
	err := Replay(path, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("not JSON")
		}
		lines = append(lines, string(line))
		return nil
	})
	return lines, err
}

// acceptedPrefix is the replay oracle: the longest newline-terminated
// prefix of data whose lines are all blank or valid JSON, and the
// non-blank lines in it.
func acceptedPrefix(data []byte) ([]byte, []string) {
	var lines []string
	end := 0
	for {
		nl := bytes.IndexByte(data[end:], '\n')
		if nl < 0 {
			return data[:end], lines
		}
		line := data[end : end+nl]
		if len(bytes.TrimSpace(line)) > 0 {
			if !json.Valid(line) {
				return data[:end], lines
			}
			lines = append(lines, string(line))
		}
		end += nl + 1
	}
}

// checkStable replays a file Replay already accepted: the second pass
// must return the same lines without touching the file, and one Append
// must replay as exactly one more line.
func checkStable(t *testing.T, path string, lines []string) {
	t.Helper()
	before, _ := os.ReadFile(path)
	again, err := replayJSON(path)
	if err != nil || !slices.Equal(again, lines) {
		t.Fatalf("second replay = %q, %v; want %q", again, err, lines)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatalf("second replay rewrote %q to %q", before, after)
	}
	if err := Append(path, map[string]int{"n": len(lines)}); err != nil {
		t.Fatal(err)
	}
	grown, err := replayJSON(path)
	if err != nil || len(grown) != len(lines)+1 || !slices.Equal(grown[:len(lines)], lines) {
		t.Fatalf("replay after Append = %q, %v; want %q plus one line", grown, err, lines)
	}
}

func TestReplay(t *testing.T) {
	for _, tc := range []struct {
		name    string
		file    *string // nil: no file
		lines   []string
		kept    string // file contents after Replay
		errWant string // substring of the expected error
	}{
		{name: "clean log", file: ptr("1\n{\"a\":2}\n"), lines: []string{"1", `{"a":2}`}, kept: "1\n{\"a\":2}\n"},
		{name: "empty file", file: ptr(""), kept: ""},
		{name: "torn tail without newline", file: ptr("1\n{\"a\":"), lines: []string{"1"}, kept: "1\n"},
		{name: "torn tail that fails", file: ptr("1\n{\"a\"\n"), lines: []string{"1"}, kept: "1\n"},
		{name: "torn tail before blank lines", file: ptr("1\n{bad\n\n \n"), lines: []string{"1"}, kept: "1\n"},
		{name: "blank lines", file: ptr("\n1\n \t\n2\n\n"), lines: []string{"1", "2"}, kept: "\n1\n \t\n2\n\n"},
		{name: "mid-file corruption", file: ptr("1\n{bad\n2\n"), kept: "1\n{bad\n2\n", errWant: "corrupt"},
		{name: "corruption across blank lines", file: ptr("{bad\n\n2\n"), kept: "{bad\n\n2\n", errWant: "corrupt"},
		{name: "missing file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.ndjson")
			if tc.file != nil {
				if err := os.WriteFile(path, []byte(*tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			lines, err := replayJSON(path)
			switch {
			case tc.file == nil:
				if !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("err = %v, want fs.ErrNotExist", err)
				}
				if err := Append(path, 1); err != nil {
					t.Fatal(err)
				}
				if lines, err := replayJSON(path); err != nil || !slices.Equal(lines, []string{"1"}) {
					t.Fatalf("replay of a log Append created = %q, %v", lines, err)
				}
				return
			case tc.errWant != "":
				if err == nil || !strings.Contains(err.Error(), tc.errWant) {
					t.Fatalf("err = %v, want %q", err, tc.errWant)
				}
			case err != nil || !slices.Equal(lines, tc.lines):
				t.Fatalf("Replay = %q, %v; want %q", lines, err, tc.lines)
			}
			if kept, _ := os.ReadFile(path); string(kept) != tc.kept {
				t.Fatalf("file after Replay = %q, want %q", kept, tc.kept)
			}
			if tc.errWant == "" {
				checkStable(t, path, tc.lines)
			}
		})
	}
}

func ptr(s string) *string { return &s }

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	for _, data := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Fatalf("read %q after writing %q", got, data)
		}
	}
	// Renaming over a directory fails after the temp file is written;
	// a missing directory fails before it exists.
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "sub"), filepath.Join(dir, "missing", "doc.json")} {
		if err := WriteFile(bad, []byte("x")); err == nil {
			t.Fatalf("WriteFile(%s) succeeded", bad)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"doc.json", "sub"}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %q, want %q: a temp file leaked", names, want)
	}
}

// FuzzReplay checks Replay's contract on arbitrary bytes: it either
// fails, or leaves the file as the longest newline-terminated prefix
// whose lines all passed, returning exactly those lines; the result is
// then stable under a second Replay and grows by one line per Append.
func FuzzReplay(f *testing.F) {
	for _, seed := range []string{"", "1\n2\n", "1\n{\"a\":", "1\n{bad\n2\n", "{bad\n\n", "\n \n1\r\n", "1\n\x00"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lines, err := replayJSON(path)
		if err != nil {
			return
		}
		wantFile, wantLines := acceptedPrefix(data)
		if kept, _ := os.ReadFile(path); !bytes.Equal(kept, wantFile) {
			t.Fatalf("Replay kept %q, want %q", kept, wantFile)
		}
		if !slices.Equal(lines, wantLines) {
			t.Fatalf("Replay returned %q, want %q", lines, wantLines)
		}
		checkStable(t, path, lines)
	})
}
