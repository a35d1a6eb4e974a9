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
