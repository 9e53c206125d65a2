package vectordb

import (
	"fmt"
	"runtime"
	"sync"
)

// SearchBatch answers a batch of queries concurrently, splitting them
// across up to GOMAXPROCS workers. Indexes are immutable after Build, so
// queries share the index without synchronization; each query is answered
// exactly as a sequential Search call would (results are positionally
// parallel to queries and bit-identical to the serial path, so recall is
// unchanged). This is the parallel scan path the serving runtime's
// retrieval tier executes per formed batch.
func (ix *IVFPQ) SearchBatch(queries [][]float32, k, nprobe int) ([][]Result, error) {
	return searchBatch(len(queries), min(k, ix.Len()), func(s *scratch, i int, dst []Result) ([]Result, error) {
		return ix.searchInto(s, queries[i], k, nprobe, dst)
	})
}

// SearchBatch is the exact-kNN batched counterpart of FlatIndex.Search,
// with the same fan-out and result-parity guarantees as IVFPQ.SearchBatch.
func (f *FlatIndex) SearchBatch(queries [][]float32, k int) ([][]Result, error) {
	return searchBatch(len(queries), min(k, f.Len()), func(s *scratch, i int, dst []Result) ([]Result, error) {
		return f.searchInto(s, queries[i], k, dst)
	})
}

// searchBatch runs one(scratch, i, dst) for every i in [0, n) across up to
// GOMAXPROCS workers and gathers results in order. Each worker holds one
// scratch for its whole share, and every query's results are carved from one
// slab of n*per results (per bounds a single query's result count), so a
// batch allocates the slab and its index, not per query. The first
// per-query error (lowest index) wins.
func searchBatch(n, per int, one func(s *scratch, i int, dst []Result) ([]Result, error)) ([][]Result, error) {
	if n == 0 {
		return nil, fmt.Errorf("vectordb: empty query batch")
	}
	per = max(per, 0)
	out := make([][]Result, n)
	slab := make([]Result, n*per)
	var (
		mu     sync.Mutex
		errAt  = n
		errOne error
	)
	parallelFor(n, 1, runtime.GOMAXPROCS(0), func(lo, hi int) {
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		for i := lo; i < hi; i++ {
			res, err := one(s, i, slab[i*per:i*per:(i+1)*per])
			if err != nil {
				mu.Lock()
				if i < errAt {
					errAt, errOne = i, err
				}
				mu.Unlock()
				continue
			}
			out[i] = res
		}
	})
	if errOne != nil {
		return nil, fmt.Errorf("vectordb: batch query %d: %w", errAt, errOne)
	}
	return out, nil
}
