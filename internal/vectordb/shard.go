package vectordb

import (
	"fmt"
	"sync/atomic"
)

// Sharded partitions a trained IVF-PQ index across N shards, each served by
// R replicas, and answers queries by scatter-gather: the coarse quantizer
// ranks cells globally, the probed cells map onto their owning shards, each
// consulted shard scans its lists into a partial top-k, and the partials
// merge exactly (same total order as a single-index scan).
//
// Sharding is by whole inverted list: cell c lives on shard c mod N. Because
// the cell ranking stays global, probing the globally-top-nprobe cells
// touches exactly the vectors a single-index Search with the same nprobe
// touches — so at full fanout the sharded result is bit-identical and recall
// parity holds by construction. Restricting fanout to fewer shards drops the
// probed cells on excluded shards: that is the quality/latency knob the
// optimizer searches over (fewer shards consulted, fewer bytes scanned,
// lower recall).
//
// Replicas model the serving tier's redundancy: all R replicas of a shard
// hold the same read-only lists, a query picks one round-robin among the
// healthy ones, and a replica marked down is skipped (a fallback, counted
// and reportable) without changing results. Only a whole shard down — every
// replica unhealthy — degrades answers, by merging the surviving shards.
type Sharded struct {
	ix       *IVFPQ
	shards   int
	replicas int

	// down[s*replicas+r] marks replica r of shard s unhealthy. Atomic so
	// health toggles race-free against concurrent searches.
	down []atomic.Bool
	// rr is the per-shard round-robin cursor for replica selection.
	rr []atomic.Uint64
	// fallbacks counts replica selections that skipped a down replica.
	fallbacks atomic.Int64
}

// NewSharded shards a trained index across shards×replicas. The underlying
// index is shared read-only; building is O(1).
func NewSharded(ix *IVFPQ, shards, replicas int) (*Sharded, error) {
	if ix == nil {
		return nil, fmt.Errorf("vectordb: NewSharded on nil index")
	}
	if shards < 1 {
		return nil, fmt.Errorf("vectordb: shards = %d < 1", shards)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("vectordb: replicas = %d < 1", replicas)
	}
	if shards > ix.NList() {
		return nil, fmt.Errorf("vectordb: %d shards exceed %d coarse cells (a shard would be empty)", shards, ix.NList())
	}
	return &Sharded{
		ix:       ix,
		shards:   shards,
		replicas: replicas,
		down:     make([]atomic.Bool, shards*replicas),
		rr:       make([]atomic.Uint64, shards),
	}, nil
}

// Shards returns the shard count N.
func (s *Sharded) Shards() int { return s.shards }

// Replicas returns the per-shard replica count R.
func (s *Sharded) Replicas() int { return s.replicas }

// Len returns the number of indexed vectors across all shards.
func (s *Sharded) Len() int { return s.ix.Len() }

// ShardOfCell returns the shard owning coarse cell c.
func (s *Sharded) ShardOfCell(c int) int { return c % s.shards }

// SetReplicaHealth marks replica r of shard sh up or down. Searches never
// block on an unhealthy replica: they fall back to the next healthy one.
func (s *Sharded) SetReplicaHealth(sh, r int, up bool) error {
	if sh < 0 || sh >= s.shards || r < 0 || r >= s.replicas {
		return fmt.Errorf("vectordb: replica (%d,%d) out of range %dx%d", sh, r, s.shards, s.replicas)
	}
	s.down[sh*s.replicas+r].Store(!up)
	return nil
}

// Fallbacks returns how many replica selections skipped a down replica.
func (s *Sharded) Fallbacks() int64 { return s.fallbacks.Load() }

// EffectiveFanout normalizes a fanout knob against the shard count: values
// outside [1, N] mean consult every shard.
func (s *Sharded) EffectiveFanout(fanout int) int {
	if fanout >= 1 && fanout <= s.shards {
		return fanout
	}
	return s.shards
}

// pickReplica selects a healthy replica of shard sh round-robin, reporting
// whether the pick had to fall back past a down replica. ok=false means the
// whole shard is down.
func (s *Sharded) pickReplica(sh int) (replica int, fellBack, ok bool) {
	start := int(s.rr[sh].Add(1)-1) % s.replicas
	for i := 0; i < s.replicas; i++ {
		r := (start + i) % s.replicas
		if !s.down[sh*s.replicas+r].Load() {
			if i > 0 {
				s.fallbacks.Add(1)
			}
			return r, i > 0, true
		}
	}
	return -1, true, false
}

// ShardQuery describes the scatter plan for one query: which shards are
// consulted (after fanout restriction and health filtering), which were
// probed but excluded by the fanout budget, and whether any replica
// selection fell back or any whole shard was lost.
type ShardQuery struct {
	// Consulted lists shard IDs actually scanned, each with the replica
	// that served it.
	Consulted []ShardPick
	// Excluded counts probed shards dropped by the fanout budget.
	Excluded int
	// Lost counts probed shards with every replica down (degraded answer).
	Lost int
	// FellBack reports whether any consulted shard skipped a down replica.
	FellBack bool
}

// ShardPick is one (shard, replica) scan assignment.
type ShardPick struct{ Shard, Replica int }

// shardState is one shard's place in a query's scatter plan.
type shardState uint8

const (
	shardUnseen  shardState = iota // none of its cells probed so far
	shardScanned                   // consulted, served by a healthy replica
	shardSkipped                   // over the fanout budget, or every replica down
)

// Search answers one query over the sharded index: probe the globally
// nearest nprobe cells, consult at most fanout shards (0 or >= Shards()
// means all), and merge per-shard partial top-k exactly. The optional info
// out-parameter receives the scatter plan (pass nil to skip); its Consulted
// slice is overwritten in place when it has the capacity.
func (s *Sharded) Search(q []float32, k, nprobe, fanout int, info *ShardQuery) ([]Result, error) {
	sc := scratchPool.Get().(*scratch)
	out, err := s.searchInto(sc, q, k, nprobe, fanout, info, nil)
	scratchPool.Put(sc)
	return out, err
}

// searchInto appends the query's merged top-k to dst.
func (s *Sharded) searchInto(sc *scratch, q []float32, k, nprobe, fanout int, info *ShardQuery, dst []Result) ([]Result, error) {
	if err := s.ix.checkQuery(q, k, nprobe); err != nil {
		return nil, err
	}
	if fanout <= 0 || fanout > s.shards {
		fanout = s.shards
	}
	sc.shard = grow(sc.shard, s.shards)
	state := sc.shard
	clear(state)
	var plan ShardQuery
	if info != nil {
		plan.Consulted = info.Consulted[:0]
	}

	// Scatter and scan in one pass over the global cell ranking — identical
	// to the single-index probe set. A shard is met at its best (closest)
	// cell, so the first fanout shards met are the ones holding the
	// best-ranked cells; later shards are over budget. All consulted shards
	// scan into the shared accumulator: topK's total order on (dist, ID)
	// makes the merge exact, the k survivors being the same set a single
	// sequential scan of these cells keeps.
	sc.top.reset(k)
	seen := 0
	for _, c := range s.ix.probe(sc, q, nprobe) {
		sh := s.ShardOfCell(c.ID)
		if state[sh] == shardUnseen {
			state[sh] = shardSkipped
			if seen++; seen > fanout {
				plan.Excluded++
			} else if r, fb, ok := s.pickReplica(sh); !ok {
				plan.Lost++
			} else {
				state[sh] = shardScanned
				plan.FellBack = plan.FellBack || fb
				if info != nil {
					plan.Consulted = append(plan.Consulted, ShardPick{Shard: sh, Replica: r})
				}
			}
		}
		if state[sh] == shardScanned {
			s.ix.scanCell(sc, c.ID)
		}
	}
	if info != nil {
		*info = plan
	}
	return append(dst, sc.top.sorted()...), nil
}

// SearchBatch answers a batch of queries with the scatter-gather plan of
// Search, fanning queries across a striped worker pool. infos, when
// non-nil, must have len(queries) slots and receives each query's scatter
// plan positionally.
func (s *Sharded) SearchBatch(queries [][]float32, k, nprobe, fanout int, infos []ShardQuery) ([][]Result, error) {
	if infos != nil && len(infos) != len(queries) {
		return nil, fmt.Errorf("vectordb: infos len %d != queries len %d", len(infos), len(queries))
	}
	return searchBatch(len(queries), min(k, s.Len()), func(sc *scratch, i int, dst []Result) ([]Result, error) {
		var info *ShardQuery
		if infos != nil {
			info = &infos[i]
		}
		return s.searchInto(sc, queries[i], k, nprobe, fanout, info, dst)
	})
}

// VectorsScanned estimates the database vectors one query touches at the
// given nprobe and fanout: the single-index scan volume scaled by the
// expected fraction of probed cells that land on consulted shards
// (fanout/N for a balanced round-robin cell assignment).
func (s *Sharded) VectorsScanned(nprobe, fanout int) float64 {
	if fanout <= 0 || fanout > s.shards {
		fanout = s.shards
	}
	return s.ix.VectorsScanned(nprobe) * float64(fanout) / float64(s.shards)
}

// BytesScanned prices the PQ-code bytes of VectorsScanned, the quantity the
// analytical retrieval model's roofline charges.
func (s *Sharded) BytesScanned(nprobe, fanout int) float64 {
	if fanout <= 0 || fanout > s.shards {
		fanout = s.shards
	}
	return s.ix.BytesScanned(nprobe) * float64(fanout) / float64(s.shards)
}

// CalibrateRecall measures recall@k of the sharded index against exact
// ground truth over a query sample, for every (nprobe, fanout) pair of the
// given grids. The returned grid is indexed [nprobe-index][fanout-index].
// This is the measured-recall surface the analytic retrieval model
// interpolates (retrieval.RecallModel) so the optimizer can put quality on
// the Pareto frontier.
func (s *Sharded) CalibrateRecall(flat *FlatIndex, queries [][]float32, k int, nprobes, fanouts []int) ([][]float64, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("vectordb: CalibrateRecall with no queries")
	}
	truths, err := flat.SearchBatch(queries, k)
	if err != nil {
		return nil, err
	}
	grid := make([][]float64, len(nprobes))
	for pi, np := range nprobes {
		grid[pi] = make([]float64, len(fanouts))
		for fi, fo := range fanouts {
			got, err := s.SearchBatch(queries, k, np, fo, nil)
			if err != nil {
				return nil, err
			}
			sum := 0.0
			for i := range queries {
				sum += Recall(truths[i], got[i], k)
			}
			grid[pi][fi] = sum / float64(len(queries))
		}
	}
	return grid, nil
}
