// Package trace generates deterministic synthetic request workloads: the
// arrival processes and per-sequence iterative-retrieval trigger positions
// the paper's studies assume (§4, §5.3). All generators are pure functions
// of their seed.
package trace

import (
	"fmt"
	"math/rand"
	"sort"
)

// Request is one serving request.
type Request struct {
	// ID is a dense index.
	ID int
	// Arrival is the arrival time in seconds from epoch.
	Arrival float64
	// Triggers are decode token positions (1-based, strictly inside the
	// generation) at which the request issues an iterative retrieval.
	Triggers []int
	// PromptTokens and OutputTokens are this request's sequence shape —
	// real RAG traffic (RAGPulse) has heavy-tailed per-request prompt and
	// output lengths, and the executors cost batches at the padded shape
	// of their members. 0 means the schema-wide constant
	// (Schema.PrefixTokens / Schema.DecodeTokens), which is also what
	// shape-less recorded traces load as.
	PromptTokens int
	// OutputTokens is the generation length; 0 means the schema constant.
	OutputTokens int
	// ChunkIDs identifies the retrieved document chunks the request's
	// prefix is built from, in prompt order. Tagged requests are what the
	// prefix/KV cache tier (internal/cache) keys on: two requests sharing
	// a chunk-ID prefix share cached KV. Empty means untagged — the
	// request bypasses the cache entirely, which is how traces recorded
	// before the field existed keep replaying unchanged.
	ChunkIDs []int
}

// Shaped reports whether the request carries an explicit sequence shape.
func (r Request) Shaped() bool { return r.PromptTokens > 0 || r.OutputTokens > 0 }

// Tagged reports whether the request carries retrieved-chunk IDs.
func (r Request) Tagged() bool { return len(r.ChunkIDs) > 0 }

// Poisson returns n requests with exponential inter-arrival times at the
// given rate (requests/second).
func Poisson(n int, rate float64, seed int64) ([]Request, error) {
	if n < 0 || rate <= 0 {
		return nil, fmt.Errorf("trace: need n >= 0 and positive rate")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		// Set only the two fields: make zeroed the rest, and rewriting the
		// whole 80 B struct stores its slice pointers through the write
		// barrier whenever a collection is marking.
		out[i].ID, out[i].Arrival = i, t
	}
	return out, nil
}

// Burst returns n requests all arriving at time zero — the §7.2
// micro-batching scenario.
func Burst(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{ID: i}
	}
	return out
}

// Triggers draws `count` distinct iterative-retrieval positions uniformly
// from (0, decodeTokens), sorted ascending — §5.3: "each retrieval is
// triggered at random intervals during the 256-token decoding process,
// with retrievals uniformly distributed across token positions".
func Triggers(count, decodeTokens int, rng *rand.Rand) []int {
	if count <= 0 || decodeTokens <= 1 {
		return nil
	}
	if count > decodeTokens-1 {
		count = decodeTokens - 1
	}
	seen := make(map[int]bool, count)
	out := make([]int, 0, count)
	for len(out) < count {
		p := 1 + rng.Intn(decodeTokens-1)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// TriggersFor synthesizes one request's trigger positions as a pure
// function of its ID. Executors call it when a trace entry carries no
// recorded positions, so the live runtime and the simulators park every
// sequence at identical tokens by construction — use WithTriggers (or a
// recorded trace) to control the positions instead. The multiplier
// decorrelates neighboring IDs.
func TriggersFor(id, count, decodeTokens int) []int {
	rng := rand.New(rand.NewSource(int64(id) * 0x9E3779B9))
	return Triggers(count, decodeTokens, rng)
}

// WithTriggers decorates requests with iterative-retrieval positions.
func WithTriggers(reqs []Request, perRequest, decodeTokens int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		r.Triggers = Triggers(perRequest, decodeTokens, rng)
		out[i] = r
	}
	return out
}
