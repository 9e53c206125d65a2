// Package cache models retrieved-context reuse as a first-class serving
// dimension: a token-budget prefix/KV cache keyed by retrieved-chunk ID
// sequences, plus an optional exact-match answer tier that short-circuits
// the whole pipeline.
//
// Real RAG traffic (RAGPulse) has heavy query/document reuse — hot
// documents recur across requests and sessions — yet a cache-less serving
// stack pays full prefill for every retrieved context. The prefix tier
// captures exactly the reusable part: a request whose retrieved-chunk ID
// sequence shares a cached prefix with earlier traffic gets a "prefix
// credit" of ChunkTokens per matched chunk, and the executors prefill only
// the uncached suffix (through the engine's shaped costing). The tier is a
// model of a KV-block cache, not a byte store: entries are chunk-ID prefix
// chains with token costs, evicted LRU under a total token budget, the way
// real serving systems bound KV cache memory.
//
// The same *Cache state machine runs in the live concurrent runtime
// (internal/serve) and the discrete-event simulator (internal/sim) — each
// executor owns its own instance — so measured hit rates cross-check the
// way latencies and throughput already do, and ReplayCredits provides the
// analytic third leg: the trace's intrinsic reuse skew at a configuration.
package cache

import (
	"fmt"
	"sync"
)

// Config sizes the cache tiers. The zero value disables both.
type Config struct {
	// PrefixTokens is the prefix tier's capacity in cached KV tokens
	// (the real resource a KV cache consumes). 0 disables the tier.
	PrefixTokens int
	// ChunkTokens is the prefill-token credit one cached chunk is worth —
	// the workload's retrieved-passage length (ragschema.Schema.ChunkTokens).
	// Required positive when the prefix tier is enabled.
	ChunkTokens int
	// AnswerEntries is the exact-match answer tier's capacity in entries.
	// 0 disables the tier.
	AnswerEntries int
}

func (c Config) validate() error {
	if c.PrefixTokens < 0 || c.ChunkTokens < 0 || c.AnswerEntries < 0 {
		return fmt.Errorf("cache: negative Config fields")
	}
	if c.PrefixTokens > 0 && c.ChunkTokens <= 0 {
		return fmt.Errorf("cache: prefix tier needs a positive ChunkTokens (the per-chunk prefill credit)")
	}
	if c.PrefixTokens > 0 && c.PrefixTokens < c.ChunkTokens {
		return fmt.Errorf("cache: PrefixTokens budget %d below one chunk (%d tokens)", c.PrefixTokens, c.ChunkTokens)
	}
	return nil
}

// Stats is a point-in-time snapshot of the cache counters. Rates are over
// the whole lifetime of the instance.
type Stats struct {
	// Requests counts prefix-tier lookups (one per tagged request);
	// Hits the lookups that matched a non-empty cached prefix.
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// HitRate is Hits/Requests (0 when no lookups happened).
	HitRate float64 `json:"hit_rate"`
	// SavedTokens is the total prefill-token credit granted — tokens the
	// executors did not prefill because their KV was cached.
	SavedTokens int64 `json:"saved_tokens"`
	// Evictions counts chunk entries evicted by the token budget;
	// CachedTokens/CachedChunks are the tier's current occupancy.
	Evictions    int64 `json:"evictions"`
	CachedTokens int64 `json:"cached_tokens"`
	CachedChunks int   `json:"cached_chunks"`

	// Answer-tier counters (all zero when the tier is disabled).
	AnswerHits      int64 `json:"answer_hits,omitempty"`
	AnswerMisses    int64 `json:"answer_misses,omitempty"`
	AnswerEvictions int64 `json:"answer_evictions,omitempty"`
	AnswerEntries   int   `json:"answer_entries,omitempty"`
}

// node is one cached chunk-ID prefix (a chain link: depth k means the
// sequence ids[:k] is cached). Nodes form an intrusive LRU list.
type node struct {
	hash       uint64
	depth      int // chunks in the prefix
	last       int // chunk ID at position depth-1 (weak collision check)
	prev, next *node
}

// Cache is a concurrency-safe two-tier reuse cache. All methods are
// nil-safe in the sense conventional for optional serving components: the
// executors guard on the pointer, so a nil *Cache never reaches a method.
type Cache struct {
	cfg Config

	mu sync.Mutex
	// Prefix tier: chunk-ID prefix chains under a token budget.
	entries    map[uint64]*node
	head, tail *node // LRU list: head = most recent
	usedTokens int64

	// Answer tier: exact-match (chunk IDs, shape) entries under a count
	// budget, same intrusive-LRU discipline.
	answers         map[uint64]*node
	ahead, atail    *node
	hits, misses    int64
	savedTokens     int64
	evictions       int64
	answerHits      int64
	answerMisses    int64
	answerEvictions int64
}

// New builds a cache under cfg. A Config disabling both tiers is rejected:
// a cache that can never hold anything is a configuration error, not a
// degenerate mode (executors model "no cache" as a nil *Cache).
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PrefixTokens == 0 && cfg.AnswerEntries == 0 {
		return nil, fmt.Errorf("cache: Config disables both tiers (use a nil *Cache for no caching)")
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[uint64]*node),
		answers: make(map[uint64]*node),
	}, nil
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// PrefixOn reports whether the prefix tier is enabled. Nil-safe, so
// executors can gate their batch-formation fast path on one call.
func (c *Cache) PrefixOn() bool { return c != nil && c.cfg.PrefixTokens > 0 }

// AnswerOn reports whether the exact-match answer tier is enabled.
func (c *Cache) AnswerOn() bool { return c != nil && c.cfg.AnswerEntries > 0 }

// fnv1a over a chunk-ID sequence prefix, incremental per position.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, id int) uint64 {
	v := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Access is the prefix tier's combined lookup-and-admit: it finds the
// longest cached prefix of ids (touching every matched link), admits the
// chain (so an identical follow-up request hits end to end), and returns
// the prefill-token credit — matched chunks times ChunkTokens, capped so at
// least one uncached token always remains to prefill (the query suffix is
// never cached). Chains longer than the token budget are admitted
// truncated: the links that fit are cached, the over-budget tail is not —
// admitting the whole chain and letting eviction drop the shallow links
// would leave an unmatched suffix that can never hit. baseTokens is the
// request's full prompt length; ids empty, the tier disabled, or
// baseTokens < 2 return 0 without touching any counter.
func (c *Cache) Access(ids []int, baseTokens int) int {
	if c.cfg.PrefixTokens == 0 || len(ids) == 0 || baseTokens < 2 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.missesOrHit(ids)

	matched := 0
	maxDepth := c.cfg.PrefixTokens / c.cfg.ChunkTokens
	h := uint64(fnvOffset)
	for k, id := range ids {
		if k >= maxDepth {
			break // partial-chain admission: deeper links can never fit
		}
		h = fnvMix(h, id)
		if matched == k { // still on the cached prefix
			if n := c.entries[h]; n != nil && n.depth == k+1 && n.last == id {
				matched = k + 1
				c.touch(n)
				continue
			}
		}
		// First miss: admit this link and every deeper one fresh.
		c.insert(h, k+1, id)
	}
	c.evict()

	credit := matched * c.cfg.ChunkTokens
	if max := baseTokens - 1; credit > max {
		credit = max
	}
	c.savedTokens += int64(credit)
	return credit
}

// missesOrHit bumps the request counter; the hit/miss split is resolved by
// the caller's matched count, so peek at the first link here (the chain is
// admitted whole, making "first link cached" equivalent to "credit > 0").
func (c *Cache) missesOrHit(ids []int) {
	h := fnvMix(fnvOffset, ids[0])
	if n := c.entries[h]; n != nil && n.depth == 1 && n.last == ids[0] {
		c.hits++
	} else {
		c.misses++
	}
}

// touch moves n to the LRU head.
func (c *Cache) touch(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache) pushFront(n *node) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) insert(h uint64, depth, last int) {
	if old := c.entries[h]; old != nil {
		// Hash collision or stale chain: replace (the tier is a model,
		// not a correctness-critical store; FNV-64 collisions are noise).
		c.unlink(old)
		c.usedTokens -= int64(c.cfg.ChunkTokens)
	}
	n := &node{hash: h, depth: depth, last: last}
	c.entries[h] = n
	c.pushFront(n)
	c.usedTokens += int64(c.cfg.ChunkTokens)
}

// evict drops LRU entries until the token budget holds.
func (c *Cache) evict() {
	for c.usedTokens > int64(c.cfg.PrefixTokens) && c.tail != nil {
		n := c.tail
		c.unlink(n)
		delete(c.entries, n.hash)
		c.usedTokens -= int64(c.cfg.ChunkTokens)
		c.evictions++
	}
}

// answerKey hashes the exact-match identity of a request: its retrieved
// context plus its sequence shape.
func answerKey(ids []int, promptTok, outTok int) uint64 {
	h := uint64(fnvOffset)
	for _, id := range ids {
		h = fnvMix(h, id)
	}
	h = fnvMix(h, promptTok)
	h = fnvMix(h, outTok)
	return h
}

// AnswerLookup reports whether an identical request (same retrieved-chunk
// sequence and sequence shape) has a cached answer — the semantic tier's
// short-circuit: on true, the executors complete the request immediately,
// skipping retrieval, prefill, and decode entirely.
func (c *Cache) AnswerLookup(ids []int, promptTok, outTok int) bool {
	if c.cfg.AnswerEntries == 0 || len(ids) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := answerKey(ids, promptTok, outTok)
	n := c.answers[h]
	if n == nil {
		c.answerMisses++
		return false
	}
	c.answerHits++
	if c.ahead != n {
		c.aunlink(n)
		c.apushFront(n)
	}
	return true
}

// AnswerStore records a completed request's answer for exact-match reuse.
func (c *Cache) AnswerStore(ids []int, promptTok, outTok int) {
	if c.cfg.AnswerEntries == 0 || len(ids) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := answerKey(ids, promptTok, outTok)
	if n := c.answers[h]; n != nil {
		if c.ahead != n {
			c.aunlink(n)
			c.apushFront(n)
		}
		return
	}
	n := &node{hash: h}
	c.answers[h] = n
	c.apushFront(n)
	for len(c.answers) > c.cfg.AnswerEntries && c.atail != nil {
		old := c.atail
		c.aunlink(old)
		delete(c.answers, old.hash)
		c.answerEvictions++
	}
}

func (c *Cache) aunlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.ahead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.atail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache) apushFront(n *node) {
	n.prev, n.next = nil, c.ahead
	if c.ahead != nil {
		c.ahead.prev = n
	}
	c.ahead = n
	if c.atail == nil {
		c.atail = n
	}
}

// Stats snapshots the counters. Safe to call concurrently with Access.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Requests:        c.hits + c.misses,
		Hits:            c.hits,
		Misses:          c.misses,
		SavedTokens:     c.savedTokens,
		Evictions:       c.evictions,
		CachedTokens:    c.usedTokens,
		CachedChunks:    len(c.entries),
		AnswerHits:      c.answerHits,
		AnswerMisses:    c.answerMisses,
		AnswerEvictions: c.answerEvictions,
		AnswerEntries:   len(c.answers),
	}
	if s.Requests > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Requests)
	}
	return s
}

// String renders the stats line the serve report prints.
func (s Stats) String() string {
	out := fmt.Sprintf("prefix cache: %d/%d hits (rate %.2f), saved %d prefill tokens, %d evictions, %d chunks (%d tokens) resident",
		s.Hits, s.Requests, s.HitRate, s.SavedTokens, s.Evictions, s.CachedChunks, s.CachedTokens)
	if s.AnswerHits+s.AnswerMisses > 0 {
		out += fmt.Sprintf("; answer cache: %d/%d hits, %d entries",
			s.AnswerHits, s.AnswerHits+s.AnswerMisses, s.AnswerEntries)
	}
	return out
}
