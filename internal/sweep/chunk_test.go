package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestMapChunkedRunsEachIndexOnce hammers the shared claim counter
// from many goroutines with a chunk that does not divide n: fn must run
// exactly once on every index of [0, n).
func TestMapChunkedRunsEachIndexOnce(t *testing.T) {
	const n, chunk, workers = 1000, 7, 8
	var mu sync.Mutex
	ran := make([]int, n)
	_, err := MapChunkedContext(context.Background(), n, workers, chunk, func(i int) (struct{}, error) {
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
// contract: chunk size and worker count change scheduling, never
// outputs.
func TestMapChunkedIdenticalAcrossChunkAndWorkers(t *testing.T) {
	const n = 101
	fn := func(i int) (int, error) { return i*i + 3, nil }
	want, err := Map(n, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		for _, chunk := range []int{0, 1, 5, 64, 1000} {
			got, err := MapChunkedContext(context.Background(), n, workers, chunk, fn)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d chunk=%d diverged from serial output", workers, chunk)
			}
		}
	}
}
