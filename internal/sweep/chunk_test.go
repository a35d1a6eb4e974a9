package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestMapChunkedRunsEachIndexOnce hammers the shared claim counter
// from many goroutines at a size whose chunk does not divide n: fn must
// run exactly once on every index of [0, n).
func TestMapChunkedRunsEachIndexOnce(t *testing.T) {
	const n, workers = 1000, 8
	if chunk := autoChunk(n, workers); chunk <= 1 || n%chunk == 0 {
		t.Fatalf("autoChunk(%d, %d) = %d: want a chunk above 1 that does not divide n", n, workers, chunk)
	}
	var mu sync.Mutex
	ran := make([]int, n)
	_, err := MapContext(context.Background(), n, workers, func(i int) (struct{}, error) {
		mu.Lock()
		ran[i]++
		mu.Unlock()
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("index %d ran %d times, want exactly once", i, c)
		}
	}
}

// TestMapChunkedIdenticalAcrossChunkAndWorkers is the batching
// contract: the chunk size (which autoChunk derives from n and the
// worker count) and the worker count change scheduling, never outputs.
func TestMapChunkedIdenticalAcrossChunkAndWorkers(t *testing.T) {
	fn := func(i int) (int, error) { return i*i + 3, nil }
	chunks := map[int]bool{}
	for _, n := range []int{101, 1000, 5000} {
		want, err := MapContext(context.Background(), n, 1, fn)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			chunks[autoChunk(n, workers)] = true
			got, err := MapContext(context.Background(), n, workers, fn)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d (chunk %d) diverged from serial output", n, workers, autoChunk(n, workers))
			}
		}
	}
	// The sizes must reach single-index claims, multi-index chunks and
	// the 64-index cap.
	if !chunks[1] || !chunks[64] || len(chunks) < 4 {
		t.Fatalf("chunk sizes exercised: %v", chunks)
	}
}
