package cache

import (
	"strings"
	"sync"
	"testing"

	"rago/internal/trace"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                    // both tiers disabled
		{PrefixTokens: 100},                   // prefix tier without ChunkTokens
		{PrefixTokens: 50, ChunkTokens: 100},  // budget below one chunk
		{PrefixTokens: -1, ChunkTokens: 100},  // negative
		{AnswerEntries: -3},                   // negative
		{PrefixTokens: 100, ChunkTokens: -10}, // negative
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := New(Config{PrefixTokens: 1000, ChunkTokens: 100}); err != nil {
		t.Errorf("prefix-only config rejected: %v", err)
	}
	if _, err := New(Config{AnswerEntries: 8}); err != nil {
		t.Errorf("answer-only config rejected: %v", err)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Cache
	if c.PrefixOn() || c.AnswerOn() {
		t.Error("nil cache reports a tier enabled")
	}
}

func TestAccessAdmitThenHit(t *testing.T) {
	c := mustNew(t, Config{PrefixTokens: 10_000, ChunkTokens: 100})
	base := 512

	// Cold lookup: nothing cached, zero credit, but the chain admits.
	if got := c.Access([]int{3, 7, 9}, base); got != 0 {
		t.Fatalf("cold Access credit = %d, want 0", got)
	}
	// Identical follow-up: full chain cached. Credit = 3 chunks.
	if got := c.Access([]int{3, 7, 9}, base); got != 300 {
		t.Fatalf("warm Access credit = %d, want 300", got)
	}
	// Shared two-chunk prefix, diverging third chunk: partial credit.
	if got := c.Access([]int{3, 7, 11}, base); got != 200 {
		t.Fatalf("prefix Access credit = %d, want 200", got)
	}
	// The divergent chain was admitted too.
	if got := c.Access([]int{3, 7, 11}, base); got != 300 {
		t.Fatalf("readmitted Access credit = %d, want 300", got)
	}
	// Same IDs in a different order share no prefix with {3,...}? They do
	// share ids[0]=3; {7,3,9} starts at 7 — no cached prefix, zero credit.
	if got := c.Access([]int{7, 3, 9}, base); got != 0 {
		t.Fatalf("reordered Access credit = %d, want 0 (prefix keying is order-sensitive)", got)
	}

	st := c.Stats()
	if st.Requests != 5 || st.Hits != 3 || st.Misses != 2 {
		t.Errorf("stats = %d requests, %d hits, %d misses; want 5/3/2", st.Requests, st.Hits, st.Misses)
	}
	if st.SavedTokens != 800 {
		t.Errorf("saved tokens = %d, want 800", st.SavedTokens)
	}
	if st.HitRate != 0.6 {
		t.Errorf("hit rate = %g, want 0.6", st.HitRate)
	}
}

func TestCreditCappedBelowPrompt(t *testing.T) {
	c := mustNew(t, Config{PrefixTokens: 10_000, ChunkTokens: 100})
	ids := []int{1, 2, 3, 4, 5}
	c.Access(ids, 512)
	// Full chain worth 500, but the prompt is only 300 tokens: the credit
	// must leave at least one token to prefill (the query suffix).
	if got := c.Access(ids, 300); got != 299 {
		t.Errorf("capped credit = %d, want 299", got)
	}
	// baseTokens < 2 can never grant a credit and must not touch counters.
	before := c.Stats().Requests
	if got := c.Access(ids, 1); got != 0 {
		t.Errorf("Access(base=1) credit = %d, want 0", got)
	}
	if c.Access(nil, 512) != 0 {
		t.Error("Access(no ids) granted a credit")
	}
	if after := c.Stats().Requests; after != before {
		t.Errorf("guarded Access bumped Requests %d -> %d", before, after)
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget of 3 chunks.
	c := mustNew(t, Config{PrefixTokens: 300, ChunkTokens: 100})
	c.Access([]int{1, 2, 3}, 512) // fills the budget exactly
	st := c.Stats()
	if st.CachedChunks != 3 || st.CachedTokens != 300 || st.Evictions != 0 {
		t.Fatalf("after fill: %d chunks, %d tokens, %d evictions; want 3/300/0", st.CachedChunks, st.CachedTokens, st.Evictions)
	}
	// A new chain displaces the old one, LRU first.
	c.Access([]int{9, 8}, 512)
	st = c.Stats()
	if st.CachedChunks != 3 || st.Evictions != 2 {
		t.Fatalf("after displace: %d chunks, %d evictions; want 3 chunks, 2 evictions", st.CachedChunks, st.Evictions)
	}
	if st.CachedTokens > int64(c.Config().PrefixTokens) {
		t.Fatalf("occupancy %d exceeds budget %d", st.CachedTokens, c.Config().PrefixTokens)
	}
	// {1,2} links were evicted (they were least recent); the new chain and
	// the survivor of the old one determine credits.
	if got := c.Access([]int{9, 8}, 512); got != 200 {
		t.Errorf("fresh chain credit = %d, want 200", got)
	}
}

func TestTouchKeepsHotChainResident(t *testing.T) {
	// Budget of 4 chunks; the hot 2-chunk chain is touched between
	// insertions of cold chains, so evictions should fall on the cold ones.
	c := mustNew(t, Config{PrefixTokens: 400, ChunkTokens: 100})
	hot := []int{1, 2}
	c.Access(hot, 512)
	for i := 0; i < 5; i++ {
		if got := c.Access(hot, 512); got != 200 {
			t.Fatalf("hot chain round %d credit = %d, want 200", i, got)
		}
		c.Access([]int{100 + i, 200 + i}, 512) // cold chain churns the tail
	}
	if got := c.Access(hot, 512); got != 200 {
		t.Errorf("hot chain evicted despite touches: credit %d, want 200", got)
	}
}

func TestAnswerTier(t *testing.T) {
	c := mustNew(t, Config{AnswerEntries: 2})
	ids := []int{4, 5}
	if c.AnswerLookup(ids, 512, 256) {
		t.Fatal("cold answer lookup hit")
	}
	c.AnswerStore(ids, 512, 256)
	if !c.AnswerLookup(ids, 512, 256) {
		t.Fatal("stored answer missed")
	}
	// Shape is part of the identity.
	if c.AnswerLookup(ids, 512, 128) {
		t.Error("answer hit across a different output length")
	}
	// Capacity 2: storing a third entry evicts the LRU one.
	c.AnswerStore([]int{6}, 512, 256)
	c.AnswerLookup(ids, 512, 256) // touch the first entry
	c.AnswerStore([]int{7}, 512, 256)
	st := c.Stats()
	if st.AnswerEntries != 2 || st.AnswerEvictions != 1 {
		t.Fatalf("answer tier: %d entries, %d evictions; want 2/1", st.AnswerEntries, st.AnswerEvictions)
	}
	if !c.AnswerLookup(ids, 512, 256) {
		t.Error("touched answer entry was evicted instead of the LRU one")
	}
	if c.AnswerLookup([]int{6}, 512, 256) {
		t.Error("LRU answer entry survived past capacity")
	}
	// Untagged requests bypass the tier entirely.
	if c.AnswerLookup(nil, 512, 256) {
		t.Error("untagged answer lookup hit")
	}
}

func TestStatsString(t *testing.T) {
	c := mustNew(t, Config{PrefixTokens: 1000, ChunkTokens: 100, AnswerEntries: 4})
	c.Access([]int{1}, 64)
	c.Access([]int{1}, 64)
	c.AnswerStore([]int{1}, 64, 32)
	c.AnswerLookup([]int{1}, 64, 32)
	s := c.Stats().String()
	for _, want := range []string{"prefix cache: 1/2 hits", "answer cache: 1/1 hits"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() = %q, missing %q", s, want)
		}
	}
}

// TestConcurrentAccess hammers every public method from many goroutines;
// run under -race this is the tier's concurrency-safety proof, and the
// final snapshot must still satisfy the structural invariants.
func TestConcurrentAccess(t *testing.T) {
	c := mustNew(t, Config{PrefixTokens: 2_000, ChunkTokens: 100, AnswerEntries: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ids := []int{g % 4, i % 7, i % 13}
				c.Access(ids, 512)
				if i%3 == 0 {
					c.AnswerStore(ids, 512, 256)
					c.AnswerLookup(ids, 512, 256)
				}
				if i%50 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Requests != 8*500 {
		t.Errorf("requests = %d, want %d", st.Requests, 8*500)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	if st.CachedTokens > 2_000 {
		t.Errorf("occupancy %d exceeds budget", st.CachedTokens)
	}
	if st.AnswerEntries > 8 {
		t.Errorf("answer entries %d exceed capacity", st.AnswerEntries)
	}
}

func TestReplayCreditsDeterministic(t *testing.T) {
	reqs, err := trace.Poisson(400, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err = trace.WithDocZipf(reqs, 500, 5, 1.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PrefixTokens: 20_000, ChunkTokens: 100}
	credits, st, err := ReplayCredits(cfg, reqs, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(credits) != len(reqs) {
		t.Fatalf("credits length %d != %d requests", len(credits), len(reqs))
	}
	if credits[0] != 0 {
		t.Errorf("first request got credit %d from an empty cache", credits[0])
	}
	var sum int64
	for i, cr := range credits {
		if cr < 0 || cr > 511 {
			t.Fatalf("credit[%d] = %d outside [0, 511]", i, cr)
		}
		sum += int64(cr)
	}
	if sum != st.SavedTokens {
		t.Errorf("sum of credits %d != stats saved tokens %d", sum, st.SavedTokens)
	}
	if st.HitRate <= 0.3 {
		t.Errorf("Zipfian trace hit rate %.2f implausibly low", st.HitRate)
	}
	// A second replay of the same trace through a fresh cache is identical.
	credits2, st2, err := ReplayCredits(cfg, reqs, 512)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Errorf("replay stats drifted: %+v vs %+v", st2, st)
	}
	for i := range credits {
		if credits[i] != credits2[i] {
			t.Fatalf("credit[%d] drifted: %d vs %d", i, credits[i], credits2[i])
		}
	}
}

// Regression: a chain longer than the token budget must be admitted
// truncated. The old behavior admitted all links and let eviction drop the
// shallowest ones, so the surviving deep suffix could never match and the
// hottest long-context chains earned zero credit forever.
func TestPartialChainAdmission(t *testing.T) {
	// Budget of 4 chunks; the hot chain has 6.
	c := mustNew(t, Config{PrefixTokens: 400, ChunkTokens: 100})
	over := []int{1, 2, 3, 4, 5, 6}
	if got := c.Access(over, 2048); got != 0 {
		t.Fatalf("cold over-budget chain credit = %d, want 0", got)
	}
	st := c.Stats()
	if st.CachedChunks != 4 || st.Evictions != 0 {
		t.Fatalf("after truncated admission: %d chunks, %d evictions; want 4 chunks, 0 evictions", st.CachedChunks, st.Evictions)
	}
	// The identical follow-up must earn the truncated prefix's full credit.
	if got := c.Access(over, 2048); got != 400 {
		t.Errorf("over-budget chain repeat credit = %d, want 400", got)
	}
	// A request sharing only the prefix earns the same credit.
	if got := c.Access([]int{1, 2, 3, 4, 9, 10}, 2048); got != 400 {
		t.Errorf("shared-prefix credit = %d, want 400", got)
	}
	if st := c.Stats(); st.CachedTokens > int64(c.Config().PrefixTokens) {
		t.Errorf("occupancy %d exceeds budget %d", st.CachedTokens, c.Config().PrefixTokens)
	}
}
