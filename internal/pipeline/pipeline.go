// Package pipeline turns a RAGSchema into the concrete stage sequence of
// Fig. 3 — Database Encode, Rewrite (prefix), Rewrite (decode), Retrieval,
// Rerank, Prefix, Decode — and enumerates the task placements RAGO may
// consider: per Fig. 13, neighboring stages up to the prefix phase may be
// collocated on the same XPUs, retrieval always runs disaggregated on CPU
// servers, and the main LLM's decode is always disaggregated from its
// prefix.
package pipeline

import (
	"fmt"

	"rago/internal/model"
	"rago/internal/ragschema"
)

// Kind identifies a pipeline stage type.
type Kind int

// Stage kinds in pipeline order (Fig. 3).
const (
	KindEncode Kind = iota
	KindRewritePrefix
	KindRewriteDecode
	KindRetrieval
	KindRerank
	KindPrefix
	KindDecode
)

var kindNames = map[Kind]string{
	KindEncode:        "encode",
	KindRewritePrefix: "rewrite-prefix",
	KindRewriteDecode: "rewrite-decode",
	KindRetrieval:     "retrieval",
	KindRerank:        "rerank",
	KindPrefix:        "prefix",
	KindDecode:        "decode",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// OnXPU reports whether the stage runs on accelerators; retrieval runs on
// CPU hosts (§6.1).
func (k Kind) OnXPU() bool { return k != KindRetrieval }

// Autoregressive reports whether the stage generates tokens one at a time.
func (k Kind) Autoregressive() bool { return k == KindDecode || k == KindRewriteDecode }

// Stage is one executable pipeline component with its workload shape.
type Stage struct {
	Kind  Kind
	Model model.Config // zero for retrieval

	// SeqLen and Items describe prefix-type work: Items forward passes
	// of SeqLen tokens per request (rerank scores Items candidate
	// passages; encode processes Items context chunks).
	SeqLen int
	Items  int

	// OutTokens and CtxLen describe decode-type work: OutTokens
	// generated auto-regressively with an average live context CtxLen.
	OutTokens int
	CtxLen    int

	// NProbe and ShardFanout tune retrieval-type work: IVF cells probed
	// per query and shards consulted by the scatter-gather (0 means the
	// tier's base configuration). They live on the stage value — not the
	// schedule alone — so profiler memoization and plan costing key on
	// them like any other workload shape.
	NProbe      int
	ShardFanout int
}

// Tuned returns the stage with retrieval knobs applied; non-retrieval
// stages are returned unchanged (the knobs are meaningless there).
func (st Stage) Tuned(nprobe, fanout int) Stage {
	if st.Kind != KindRetrieval {
		return st
	}
	st.NProbe = nprobe
	st.ShardFanout = fanout
	return st
}

// TokensPerRequest is the total tokens the stage touches per request.
func (st Stage) TokensPerRequest() int {
	if st.Kind.Autoregressive() {
		return st.OutTokens
	}
	return st.SeqLen * st.Items
}

// Pipeline is the stage graph for one schema: Stages are the nodes in
// topological order, Succ the forward edges. A nil Succ is the common
// linear chain (stage i feeds stage i+1); multi-source schemas carry
// explicit fan-out/join edges. See graph.go for the graph accessors.
type Pipeline struct {
	Schema ragschema.Schema
	Stages []Stage
	// Succ[i] lists the successor stage indices of stage i; nil means
	// the linear chain.
	Succ [][]int
}

// modelFor maps a parameter count to the nearest zoo architecture.
func modelFor(params float64, encoder bool) (model.Config, error) {
	if encoder {
		// One encoder family; accept sizes within 4x of it.
		ratio := params / model.Encoder120M.Params()
		if ratio < 0.25 || ratio > 4 {
			return model.Config{}, fmt.Errorf("pipeline: no encoder architecture near %.3g parameters", params)
		}
		return model.Encoder120M, nil
	}
	cfg, ok := model.GenerativeByParams(params)
	if !ok {
		return model.Config{}, fmt.Errorf("pipeline: no generative architecture near %.3g parameters", params)
	}
	return cfg, nil
}

// Build derives the stage sequence for a schema.
func Build(s ragschema.Schema) (Pipeline, error) {
	if err := s.Validate(); err != nil {
		return Pipeline{}, err
	}
	gen, err := modelFor(s.GenerativeParams, false)
	if err != nil {
		return Pipeline{}, err
	}
	var stages []Stage

	if s.HasEncoder() {
		enc, err := modelFor(s.DocEncoderParams, true)
		if err != nil {
			return Pipeline{}, err
		}
		chunk := s.ChunkTokens
		if chunk <= 0 {
			chunk = 128
		}
		stages = append(stages, Stage{
			Kind:   KindEncode,
			Model:  enc,
			SeqLen: chunk,
			Items:  (s.ContextTokens + chunk - 1) / chunk,
		})
	}
	if s.HasRewriter() {
		rw, err := modelFor(s.QueryRewriterParams, false)
		if err != nil {
			return Pipeline{}, err
		}
		stages = append(stages,
			Stage{Kind: KindRewritePrefix, Model: rw, SeqLen: s.QuestionTokens, Items: 1},
			Stage{
				Kind:      KindRewriteDecode,
				Model:     rw,
				OutTokens: s.QuestionTokens, // §5.4: rephrased question of the same length
				CtxLen:    s.QuestionTokens + s.QuestionTokens/2,
			},
		)
	}
	retrFirst, retrCount := -1, 0
	if !s.NoRetrieval() {
		retrFirst = len(stages)
		retrCount = s.Sources()
		for i := 0; i < retrCount; i++ {
			stages = append(stages, Stage{Kind: KindRetrieval})
		}
	}
	if s.HasReranker() {
		rr, err := modelFor(s.RerankerParams, true)
		if err != nil {
			return Pipeline{}, err
		}
		stages = append(stages, Stage{
			Kind:   KindRerank,
			Model:  rr,
			SeqLen: s.ChunkTokens,
			Items:  s.RerankCandidates,
		})
	}
	stages = append(stages,
		Stage{Kind: KindPrefix, Model: gen, SeqLen: s.PrefixTokens, Items: 1},
		Stage{
			Kind:      KindDecode,
			Model:     gen,
			OutTokens: s.DecodeTokens,
			CtxLen:    s.PrefixTokens + s.DecodeTokens/2,
		},
	)
	p := Pipeline{Schema: s, Stages: stages}
	if retrCount > 1 {
		p.Succ = fanOutEdges(len(stages), retrFirst, retrCount)
	}
	return p, nil
}

// fanOutEdges builds the multi-source stage graph: the chain before the
// retrieval block fans out to `count` parallel retrieval stages starting
// at `first`, which all join on the next stage (the reranker when
// present, the prefix otherwise); everything else chains linearly.
func fanOutEdges(n, first, count int) [][]int {
	succ := make([][]int, n)
	join := first + count
	for i := 0; i < n-1; i++ {
		switch {
		case i == first-1: // fan out
			for j := 0; j < count; j++ {
				succ[i] = append(succ[i], first+j)
			}
		case i >= first && i < join: // join
			succ[i] = []int{join}
		default:
			succ[i] = []int{i + 1}
		}
	}
	return succ
}

// Index returns the position of the first stage of the given kind, or -1.
func (p Pipeline) Index(k Kind) int {
	for i := range p.Stages {
		if p.Stages[i].Kind == k {
			return i
		}
	}
	return -1
}

// PreDecodeXPUStages returns indices of accelerator stages before decode,
// in pipeline order — the stages whose placement RAGO chooses.
func (p Pipeline) PreDecodeXPUStages() []int {
	var out []int
	for i := range p.Stages {
		k := p.Stages[i].Kind
		if k == KindDecode {
			break
		}
		if k.OnXPU() {
			out = append(out, i)
		}
	}
	return out
}
