package bench

import (
	"fmt"
	"math"

	"rago/internal/hw"
	"rago/internal/model"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/sim"
	"rago/internal/stageperf"
	"rago/internal/xpusim"
)

// Figure5 reproduces Fig. 5: QPS/chip-vs-TTFT Pareto frontiers for RAG
// with small models against LLM-only systems with larger models, on the
// 64-chip pool.
func Figure5() ([]Series, error) {
	configs := []struct {
		name   string
		schema ragschema.Schema
	}{
		{"RAG 1B", ragschema.CaseI(1e9, 1)},
		{"LLM-only 8B", ragschema.LLMOnly(8e9)},
		{"RAG 8B", ragschema.CaseI(8e9, 1)},
		{"LLM-only 70B", ragschema.LLMOnly(70e9)},
	}
	var out []Series
	for _, c := range configs {
		_, front, err := optimize(c.schema, pool64(), pool64().XPUs())
		if err != nil {
			return nil, err
		}
		out = append(out, frontierSeries(c.name, front))
	}
	return out, nil
}

// Figure6QPS reproduces Fig. 6a/6b: Case I Pareto frontiers at 1/2/4/8
// query vectors per retrieval, plus the no-retrieval reference with the
// same prefix length.
func Figure6QPS(generativeParams float64) ([]Series, error) {
	var out []Series
	for _, q := range []int{1, 2, 4, 8} {
		_, front, err := optimize(ragschema.CaseI(generativeParams, q), pool64(), pool64().XPUs())
		if err != nil {
			return nil, err
		}
		out = append(out, frontierSeries(fmt.Sprintf("%d queries", q), front))
	}
	// "No retrieval (same prefix len)": the full 512-token prompt
	// without the retrieval stage.
	noRetr := ragschema.LLMOnly(generativeParams)
	noRetr.PrefixTokens = 512
	noRetr.Name = "no-retrieval-same-prefix"
	_, front, err := optimize(noRetr, pool64(), pool64().XPUs())
	if err != nil {
		return nil, err
	}
	out = append(out, frontierSeries("no retrieval", front))
	return out, nil
}

// Figure6Breakdown reproduces Fig. 6c/6d: normalized resource-time shares
// of retrieval/prefix/decode across query counts.
func Figure6Breakdown(generativeParams float64) ([]Breakdown, error) {
	var out []Breakdown
	for _, q := range []int{1, 2, 4, 8} {
		b, err := breakdown(ragschema.CaseI(generativeParams, q), hw.XPUC,
			fmt.Sprintf("%d queries", q))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Figure7a reproduces Fig. 7a: retrieval share across XPU generations and
// model scales.
func Figure7a() ([]Cell, error) {
	var out []Cell
	for _, chip := range hw.XPUGenerations() {
		for _, params := range []float64{1e9, 8e9, 70e9, 405e9} {
			share, err := RetrievalShare(ragschema.CaseI(params, 1), chip)
			if err != nil {
				return nil, err
			}
			out = append(out, Cell{Row: chip.Name, Col: sizeName(params), Value: share})
		}
	}
	sortCells(out)
	return out, nil
}

// Figure7b reproduces Fig. 7b: retrieval share versus the scanned
// database fraction.
func Figure7b() ([]Cell, error) {
	var out []Cell
	for _, scan := range []float64{0.0001, 0.001, 0.01} {
		for _, params := range []float64{1e9, 8e9, 70e9, 405e9} {
			s := ragschema.CaseI(params, 1)
			s.ScanFraction = scan
			share, err := RetrievalShare(s, hw.XPUC)
			if err != nil {
				return nil, err
			}
			out = append(out, Cell{
				Row:   fmt.Sprintf("%.2f%%", scan*100),
				Col:   sizeName(params),
				Value: share,
			})
		}
	}
	sortCells(out)
	return out, nil
}

// Figure7c reproduces Fig. 7c: the retrieval-share heatmap over prefix
// length (128-2048) and decode length (128-512) for the 8B model.
func Figure7c() ([]Cell, error) {
	var out []Cell
	for _, decode := range []int{128, 256, 512} {
		for _, prefix := range []int{128, 256, 512, 1024, 2048} {
			s := ragschema.CaseI(8e9, 1)
			s.PrefixTokens = prefix
			s.DecodeTokens = decode
			share, err := RetrievalShare(s, hw.XPUC)
			if err != nil {
				return nil, err
			}
			out = append(out, Cell{
				Row:   fmt.Sprintf("decode=%d", decode),
				Col:   fmt.Sprintf("prefix=%d", prefix),
				Value: share,
			})
		}
	}
	return out, nil
}

// Figure8QPS reproduces Fig. 8a: Case II Pareto frontiers across context
// lengths, with the no-long-context reference.
func Figure8QPS(generativeParams float64) ([]Series, error) {
	var out []Series
	ref := ragschema.CaseI(generativeParams, 1)
	ref.Name = "no-long-context"
	_, front, err := optimize(ref, pool64(), pool64().XPUs())
	if err != nil {
		return nil, err
	}
	out = append(out, frontierSeries("no long context", front))
	for _, ctx := range []int{100_000, 1_000_000, 10_000_000} {
		_, front, err := optimize(ragschema.CaseII(generativeParams, ctx), pool64(), pool64().XPUs())
		if err != nil {
			return nil, err
		}
		out = append(out, frontierSeries(fmt.Sprintf("context %s", ctxName(ctx)), front))
	}
	return out, nil
}

// Figure8Breakdown reproduces Fig. 8b: encode/retrieval/prefix/decode
// shares across context lengths.
func Figure8Breakdown(generativeParams float64) ([]Breakdown, error) {
	var out []Breakdown
	for _, ctx := range []int{100_000, 1_000_000, 10_000_000} {
		b, err := breakdown(ragschema.CaseII(generativeParams, ctx), hw.XPUC,
			fmt.Sprintf("context %s", ctxName(ctx)))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// LongContextSpeedup reproduces §5.2's headline comparison: RAG over a
// 1M-token uploaded document versus feeding the document to an efficient
// sparse-attention long-context LLM (global attention in one of every four
// layers, 128-token local windows elsewhere). Returns the TTFT and
// QPS/chip speedup factors (paper: 2852x and 6633x). The RAG side assumes
// cached document embeddings (§5.2 recommends caching; 15 MB for 1M
// tokens), matching the paper's per-query comparison.
func LongContextSpeedup(contextTokens int) (ttftX, qpsX float64, err error) {
	const genParams = 70e9
	cluster := pool64()
	simulator := xpusim.New(cluster.Chip)
	cfg, ok := model.GenerativeByParams(genParams)
	if !ok {
		return 0, 0, fmt.Errorf("bench: no 70B model")
	}

	// RAG side: retrieval over the tiny document database plus a
	// 512-token prefix; decode unchanged. Encode excluded (cached).
	schema := ragschema.CaseII(genParams, contextTokens)
	prof := stageperf.New(cluster.Chip, cluster.Host, schema)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		return 0, 0, err
	}
	retrStage := pipe.Stages[pipe.Index(pipeline.KindRetrieval)]
	retr := prof.Eval(retrStage, 1, 1)
	pre, err := simulator.Prefix(cfg, schema.PrefixTokens, 1, cluster.XPUs())
	if err != nil {
		return 0, 0, err
	}
	ragTTFT := retr.Latency + pre.Latency
	// RAG throughput per chip: best prefix+decode split (prefix cost is
	// tiny; decode dominates).
	_, front, err := optimize(withoutEncoder(schema), cluster, cluster.XPUs())
	if err != nil {
		return 0, 0, err
	}
	ragBest, err := maxQPSPerChip(front)
	if err != nil {
		return 0, 0, err
	}

	// Long-context LLM side, computed from first principles with the
	// same roofline constants. Prefix: linear weight work for L tokens
	// plus sparse attention.
	L := float64(contextTokens)
	p := simulator.P
	effComp := cluster.Chip.PeakFLOPS * p.ComputeDerate * float64(cluster.XPUs())
	effMem := cluster.Chip.MemBW * p.MemUtil * float64(cluster.XPUs())
	linear := 2 * cfg.Params() * L
	heads, hd := float64(cfg.Heads), float64(cfg.HeadDim)
	layers := float64(cfg.Layers)
	globalLayers := layers / 4
	localLayers := layers - globalLayers
	attn := globalLayers*4*heads*hd*L*L/2 + localLayers*4*heads*hd*L*128
	llmTTFT := (linear + attn) / effComp
	if t := (cfg.ParamBytes() + L*cfg.KVBytesPerToken()) / effMem; t > llmTTFT {
		llmTTFT = t
	}

	// Long-context LLM decode: each step reads the full KV cache. The
	// KV footprint caps the batch; QPS/chip follows the step time.
	kvPerSeq := L * cfg.KVBytesPerToken()
	usable := cluster.Chip.HBMBytes*(1-p.HBMReserve)*float64(cluster.XPUs()) - cfg.ParamBytes()
	maxBatch := math.Max(1, math.Floor(usable/kvPerSeq))
	stepTime := (cfg.ParamBytes() + maxBatch*kvPerSeq) / effMem
	llmQPS := maxBatch / (float64(schema.DecodeTokens) * stepTime)
	llmQPSPerChip := llmQPS / float64(cluster.XPUs())

	return llmTTFT / ragTTFT, ragBest.Metrics.QPSPerChip / llmQPSPerChip, nil
}

// withoutEncoder strips the encode stage (cached embeddings) for the RAG
// side of the long-context comparison.
func withoutEncoder(s ragschema.Schema) ragschema.Schema {
	s.DocEncoderParams = 0
	s.ContextTokens = 0
	s.Name += "-cached-embeddings"
	return s
}

// Figure9a reproduces Fig. 9a: TPOT versus decode batch size for 1-8
// retrievals per sequence, via the token-level iterative simulator with
// real retrieval and iterative-prefix round latencies.
func Figure9a(generativeParams float64) ([]Series, error) {
	var out []Series
	for _, freq := range []int{1, 2, 4, 8} {
		s := Series{
			Name:   fmt.Sprintf("%d retrievals", freq),
			XLabel: "decode batch", YLabel: "TPOT (s)",
		}
		for _, bd := range []int{1, 4, 16, 64, 256, 1024} {
			tpot, err := iterativeTPOT(generativeParams, freq, bd, min(bd, 16))
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(bd))
			s.Y = append(s.Y, tpot)
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure9b reproduces Fig. 9b: TPOT versus iterative batch size at fixed
// decode batches (4 retrievals per sequence).
func Figure9b(generativeParams float64) ([]Series, error) {
	var out []Series
	for _, bd := range []int{4, 16, 64, 256} {
		s := Series{
			Name:   fmt.Sprintf("dec batch %d", bd),
			XLabel: "iterative batch", YLabel: "TPOT (s)",
		}
		for _, bi := range []int{1, 4, 16, 64} {
			tpot, err := iterativeTPOT(generativeParams, 4, bd, bi)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(bi))
			s.Y = append(s.Y, tpot)
		}
		out = append(out, s)
	}
	return out, nil
}

// iterativeTPOT runs the §5.3 token-level simulation for one operating
// point: the decode tier holds half the pool, retrieval the minimum
// servers, and each iterative round pays retrieval plus a prefix pass over
// the retrieved content.
func iterativeTPOT(generativeParams float64, freq, decodeBatch, iterBatch int) (float64, error) {
	schema := ragschema.CaseIII(generativeParams, max(freq, 2))
	schema.RetrievalFrequency = freq // allow freq==1 (no iteration)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		return 0, err
	}
	cluster := pool64()
	prof := stageperf.New(cluster.Chip, cluster.Host, schema)
	decIdx := pipe.Index(pipeline.KindDecode)
	decChips := cluster.XPUs() / 2
	// The decode tier cooperates on the batch (tensor/pipeline
	// parallelism across its chips): latency-optimal sharding, as Fig. 9
	// plots per-tier TPOT rather than replicated throughput.
	dec := prof.Eval(pipe.Stages[decIdx], decChips, decodeBatch)
	if !dec.OK {
		return 0, fmt.Errorf("bench: decode batch %d infeasible", decodeBatch)
	}
	stepTime := dec.StepLatency

	servers := prof.MinRetrievalServers()
	retrStage := pipe.Stages[pipe.Index(pipeline.KindRetrieval)]
	prefIdx := pipe.Index(pipeline.KindPrefix)
	iterPrefix := pipe.Stages[prefIdx]
	iterPrefix.SeqLen = schema.RetrievedTokens()
	prefChips := cluster.XPUs() - decChips

	res, err := sim.RunIterative(sim.IterativeConfig{
		DecodeBatch:      decodeBatch,
		IterBatch:        iterBatch,
		DecodeTokens:     schema.DecodeTokens,
		RetrievalsPerSeq: freq - 1,
		StepTime:         stepTime,
		RetrievalLatency: func(batch int) float64 {
			if rt := prof.Eval(retrStage, servers, batch); rt.OK {
				return rt.Latency
			}
			return math.Inf(1)
		},
		PrefixLatency: func(batch int) float64 {
			if pt := bestThroughputPoint(prof, iterPrefix, prefChips, batch); pt.OK {
				return pt.Latency
			}
			return math.Inf(1)
		},
		Sequences: 200,
		Seed:      1,
	})
	if err != nil {
		return 0, err
	}
	return res.TPOT, nil
}

// Figure10 reproduces Fig. 10b: the normalized decoding latency heatmap
// under zero-cost retrieval rounds, isolating batching idleness.
func Figure10() ([]Cell, error) {
	var out []Cell
	for _, bi := range []int{1, 2, 4, 8, 16, 64, 128, 256} {
		for _, bd := range []int{4, 8, 16, 64, 128, 256} {
			if bi > bd {
				continue // the paper's triangle: iterative batch <= decode batch
			}
			res, err := sim.RunIterative(sim.IterativeConfig{
				DecodeBatch:      bd,
				IterBatch:        bi,
				DecodeTokens:     256,
				RetrievalsPerSeq: 3,
				StepTime:         0.01,
				Sequences:        300,
				Seed:             1,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Cell{
				Row:   fmt.Sprintf("iter=%d", bi),
				Col:   fmt.Sprintf("dec=%d", bd),
				Value: res.NormalizedLatency,
			})
		}
	}
	return out, nil
}

// Figure11 reproduces Fig. 11: Case IV resource-time breakdowns and the
// TTFT inflation the rewriter causes (paper: 2.4x).
func Figure11() ([]Breakdown, float64, error) {
	var bds []Breakdown
	for _, params := range []float64{8e9, 70e9} {
		b, err := breakdown(ragschema.CaseIV(params), hw.XPUC, sizeName(params)+" LLM")
		if err != nil {
			return nil, 0, err
		}
		bds = append(bds, b)
	}
	// TTFT with and without the rewriter+reranker, at min-TTFT schedules.
	_, withFront, err := optimize(ragschema.CaseIV(70e9), pool64(), pool64().XPUs())
	if err != nil {
		return nil, 0, err
	}
	_, withoutFront, err := optimize(ragschema.CaseI(70e9, 1), pool64(), pool64().XPUs())
	if err != nil {
		return nil, 0, err
	}
	w, ok1 := perf.MinTTFT(withFront)
	wo, ok2 := perf.MinTTFT(withoutFront)
	if !ok1 || !ok2 {
		return nil, 0, fmt.Errorf("bench: empty frontier")
	}
	return bds, w.Metrics.TTFT / wo.Metrics.TTFT, nil
}

// bestThroughputPoint picks the max-QPS replication for a stage.
func bestThroughputPoint(prof *stageperf.Profiler, st pipeline.Stage, chips, batch int) stageperf.Point {
	var best stageperf.Point
	for _, c := range prof.Candidates(st, chips, batch) {
		if !best.OK || c.QPS > best.QPS {
			best = c
		}
	}
	return best
}

func sizeName(params float64) string {
	switch {
	case params >= 1e9:
		return fmt.Sprintf("%.0fB", params/1e9)
	default:
		return fmt.Sprintf("%.0fM", params/1e6)
	}
}

func ctxName(tokens int) string {
	if tokens >= 1_000_000 {
		return fmt.Sprintf("%dM", tokens/1_000_000)
	}
	return fmt.Sprintf("%dK", tokens/1_000)
}
