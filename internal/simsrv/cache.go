package simsrv

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
)

// Cache is a content-addressed result store: immutable JSON documents
// filed under their RunKey. Writes are atomic (durable.WriteFile) and
// idempotent — two workers caching the same key race harmlessly because
// the content is identical by construction.
//
// The cache holds the only copy of a run's result, and every entry is
// canonical: the compact, HTML-escaped form encoding/json emits, so a
// report embeds entries as is (see writeReport). The local path caches
// sim.Result.AppendJSON output, which is json.Marshal's; the publish
// route caches jsonenc.Canonical of the body, which is the body itself
// when it is already canonical and json.Marshal's re-encoding of it
// otherwise, so either way an entry holds the bytes
// json.Marshal(json.RawMessage(body)) writes.
type Cache struct {
	dir string
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simsrv: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path shards entries by the first two hash bytes to keep directories
// small under large sweeps.
func (c *Cache) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(c.dir, shard, key+".json")
}

// Get returns the cached document for key, if present.
func (c *Cache) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Has reports whether key has an entry, without reading it.
func (c *Cache) Has(key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// requireAll returns an error naming the first run whose entry is
// missing, where run i's entry is keys[i].
func (c *Cache) requireAll(keys []string) error {
	for i, key := range keys {
		if !c.Has(key) {
			return fmt.Errorf("run %d: result missing from cache (key %s)", i, key)
		}
	}
	return nil
}

// Put files data under key, durably and atomically.
func (c *Cache) Put(key string, data []byte) error {
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("simsrv: cache: %w", err)
	}
	if err := durable.WriteFile(path, data); err != nil {
		return fmt.Errorf("simsrv: cache: %w", err)
	}
	return nil
}
