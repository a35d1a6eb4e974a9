// Package durable owns the file rules of the service's store: an
// append-only NDJSON log that is replayed with torn-tail repair, and an
// atomic whole-file write. Every fsync, temp file, rename and
// truncation the store performs happens here, so jobstore's logs, the
// claim ledger's WAL and the result cache share one discipline.
package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Replay feeds each newline-terminated, non-blank line of the
// append-only file at path to fn. A record is durable only once its
// trailing newline is on disk: a final line that has no newline, or
// that fn rejects, is a torn write — it is dropped AND truncated from
// the file, so the next Append starts on a clean line boundary instead
// of fusing with the partial record; blank lines after it go with it. A
// rejected line with durable lines after it is corruption, and Replay
// fails with an error saying so. A missing file yields an error
// satisfying errors.Is(err, fs.ErrNotExist).
func Replay(path string, fn func(line []byte) error) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	good := 0 // byte offset just past the last durable line
	var pendingErr error
	for pos := 0; pos < len(raw); {
		nl := bytes.IndexByte(raw[pos:], '\n')
		if nl < 0 {
			break // newline-less tail: torn by definition
		}
		line := raw[pos : pos+nl]
		pos += nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			if pendingErr == nil {
				good = pos
			}
			continue
		}
		if pendingErr != nil {
			return fmt.Errorf("%s: corrupt mid-file record: %w", path, pendingErr)
		}
		if err := fn(line); err != nil {
			pendingErr = err // a torn write if this turns out to be the tail
			continue
		}
		good = pos
	}
	if good < len(raw) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("%s: truncating torn tail: %w", path, err)
		}
	}
	return nil
}

// Append durably appends v as one JSON line: the file is opened with
// O_APPEND|O_CREATE, written, fsynced and closed before Append returns,
// so an acknowledged record survives a crash.
func Append(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(raw, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile replaces the file at path with data atomically: the bytes
// go to a temp file in the same directory, which is fsynced, closed and
// renamed over path, so a reader sees the old document or the new one,
// never a prefix. The temp file is removed on every error path.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
