// Package model describes the transformer models the paper serves —
// Llama-3-class generative LLMs at 1B/8B/70B/405B parameters and the 120M
// sentence-encoder used as database encoder and reranker (§4, Table 1) —
// and derives from their architecture the per-operator FLOP and byte counts
// the inference simulator consumes.
//
// The paper only needs models as generators of compute, memory-traffic, and
// memory-footprint numbers; no weights exist here. Models are assumed
// quantized to INT8 (1 byte/parameter, §4) with FP16 KV caches.
package model

import "fmt"

// Config is a dense decoder-only (or encoder-only) transformer description.
type Config struct {
	Name string
	// Layers is the number of transformer blocks.
	Layers int
	// DModel is the residual stream width.
	DModel int
	// FFN is the MLP intermediate width.
	FFN int
	// Heads is the number of attention query heads.
	Heads int
	// KVHeads is the number of key/value heads (grouped-query attention).
	KVHeads int
	// HeadDim is the per-head dimension.
	HeadDim int
	// Vocab is the vocabulary size (LM head / embedding width).
	Vocab int
	// GatedMLP selects Llama-style SwiGLU (three projections) over the
	// classic two-projection MLP used by BERT-class encoders.
	GatedMLP bool
	// EncoderOnly marks bidirectional encoders: they have no decode
	// phase and no KV cache, and attention is not causally masked.
	EncoderOnly bool
	// BytesPerParam is the serving precision of weights (1 = INT8).
	BytesPerParam float64
	// KVBytesPerElem is the KV-cache element size (2 = FP16).
	KVBytesPerElem float64
}

// Validate reports an error for architecturally impossible configs.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.DModel <= 0 || c.FFN <= 0 || c.Heads <= 0 || c.HeadDim <= 0 || c.Vocab <= 0 {
		return fmt.Errorf("model: %q has non-positive dimensions", c.Name)
	}
	if c.KVHeads <= 0 || c.KVHeads > c.Heads || c.Heads%c.KVHeads != 0 {
		return fmt.Errorf("model: %q KV heads %d incompatible with %d query heads", c.Name, c.KVHeads, c.Heads)
	}
	if c.BytesPerParam <= 0 || c.KVBytesPerElem <= 0 {
		return fmt.Errorf("model: %q has non-positive precision", c.Name)
	}
	return nil
}

// Params returns the derived parameter count from the architecture:
// attention projections, MLP projections, and (untied) embedding + LM head.
func (c Config) Params() float64 {
	attn := float64(c.DModel)*float64(c.Heads*c.HeadDim) + // Q
		2*float64(c.DModel)*float64(c.KVHeads*c.HeadDim) + // K, V
		float64(c.Heads*c.HeadDim)*float64(c.DModel) // O
	mlpProj := 2
	if c.GatedMLP {
		mlpProj = 3
	}
	mlp := float64(mlpProj) * float64(c.DModel) * float64(c.FFN)
	perLayer := attn + mlp
	embed := float64(c.Vocab) * float64(c.DModel)
	if !c.EncoderOnly {
		embed *= 2 // input embedding + LM head
	}
	return float64(c.Layers)*perLayer + embed
}

// ParamBytes returns the serving memory footprint of the weights.
func (c Config) ParamBytes() float64 { return c.Params() * c.BytesPerParam }

// KVBytesPerToken returns the KV-cache bytes one token occupies across all
// layers (zero for encoder-only models).
func (c Config) KVBytesPerToken() float64 {
	if c.EncoderOnly {
		return 0
	}
	return 2 * float64(c.Layers) * float64(c.KVHeads) * float64(c.HeadDim) * c.KVBytesPerElem
}

// Op is one simulator operator: a unit of work with a compute cost, a
// memory-traffic cost, and matmul operand dimensions used to estimate
// systolic-array efficiency. Repeat collapses identical per-layer operators.
type Op struct {
	Name string
	// FLOPs is floating-point work for one instance of the op.
	FLOPs float64
	// Bytes is memory traffic (weights + activations + KV) for one
	// instance of the op.
	Bytes float64
	// M, K, N are matmul operand dims (rows, reduction, cols) for the
	// systolic-efficiency model. Non-matmul ops set M=K=N=0 and are
	// charged at full efficiency.
	M, K, N int
	// Repeat is how many times the op runs (usually the layer count).
	Repeat int
	// WeightBytes is the per-instance weight traffic (subset of Bytes),
	// used by parallelism sharding to know what splits across chips.
	WeightBytes float64
}

// TotalFLOPs returns FLOPs summed over all repeats of all ops.
func TotalFLOPs(ops []Op) float64 {
	var s float64
	for _, o := range ops {
		s += o.FLOPs * float64(o.Repeat)
	}
	return s
}

// TotalBytes returns memory traffic summed over all repeats of all ops.
func TotalBytes(ops []Op) float64 {
	var s float64
	for _, o := range ops {
		s += o.Bytes * float64(o.Repeat)
	}
	return s
}

// PrefixOps returns the operator sequence for processing a prompt of seqLen
// tokens at batch size batch (one full forward pass over all positions).
// For encoder-only models this is simply the encoding pass over seqLen
// tokens. Ops are per-layer with Repeat = Layers, plus a final LM-head op
// for generative models.
func (c Config) PrefixOps(seqLen, batch int) []Op {
	if seqLen <= 0 || batch <= 0 {
		return nil
	}
	rows := batch * seqLen
	// Attention: scores QK^T and weighted sum over V. Causal masking for
	// generative models halves the score/value work; encoders attend to
	// all positions. KV cache is written once per token for generative
	// models.
	attnFLOPs := 4 * float64(batch) * float64(c.Heads) * float64(seqLen) * float64(seqLen) * float64(c.HeadDim)
	if !c.EncoderOnly {
		attnFLOPs /= 2
	}
	kvWrite := float64(batch) * float64(seqLen) * 2 * float64(c.KVHeads) * float64(c.HeadDim) * c.KVBytesPerElem
	attn := Op{
		Name:  "attention",
		FLOPs: attnFLOPs,
		Bytes: kvWrite + 2*float64(rows)*float64(c.Heads*c.HeadDim)*c.BytesPerParam,
		M:     seqLen, K: c.HeadDim, N: seqLen,
		Repeat: c.Layers,
	}
	headRows := batch // the LM head runs for the final position of each sequence only
	if c.EncoderOnly {
		headRows = 0
	}
	return c.forward(rows, attn, headRows)
}

// DecodeOps returns the operator sequence for one auto-regressive decode
// step at batch size batch where sequences have an average live context of
// ctxLen tokens (the KV cache that must be read). Encoder-only models have
// no decode phase and return nil.
func (c Config) DecodeOps(batch, ctxLen int) []Op {
	if c.EncoderOnly || batch <= 0 || ctxLen < 0 {
		return nil
	}
	// Attention over the KV cache: per sequence, read ctxLen tokens of K
	// and V and do a rank-1 score + weighted-sum per head.
	kvRead := float64(batch) * float64(ctxLen) * 2 * float64(c.KVHeads) * float64(c.HeadDim) * c.KVBytesPerElem
	// Attention kernels batch the rank-1 per-head products across the
	// batch and head dimensions, so the row count feeding the array is
	// the batch size, not 1.
	attn := Op{
		Name:  "attention",
		FLOPs: 4 * float64(batch) * float64(c.Heads) * float64(ctxLen) * float64(c.HeadDim),
		Bytes: kvRead + 2*float64(batch)*float64(c.Heads*c.HeadDim)*c.BytesPerParam,
		M:     batch, K: c.HeadDim, N: ctxLen,
		Repeat: c.Layers,
	}
	return c.forward(batch, attn, batch)
}

// forward is one forward pass over rows token positions: per layer the
// fused QKV projection, attn, the output projection and the MLP (up, with
// the gate if SwiGLU, then down), then an LM head over headRows positions
// when headRows is positive.
func (c Config) forward(rows int, attn Op, headRows int) []Op {
	d := c.DModel
	upN := c.FFN
	if c.GatedMLP {
		upN = 2 * c.FFN
	}
	ops := append(make([]Op, 0, 6),
		c.linear("qkv_proj", rows, d, (c.Heads+2*c.KVHeads)*c.HeadDim, c.Layers),
		attn,
		c.linear("o_proj", rows, c.Heads*c.HeadDim, d, c.Layers),
		c.linear("mlp_up", rows, d, upN, c.Layers),
		c.linear("mlp_down", rows, c.FFN, d, c.Layers),
	)
	if headRows > 0 {
		ops = append(ops, c.linear("lm_head", headRows, d, c.Vocab, 1))
	}
	return ops
}

// linear is a dense projection of rows positions from k to n features: its
// k x n weights are read once and its activations, stored at weight
// precision, stream in and out.
func (c Config) linear(name string, rows, k, n, repeat int) Op {
	w := float64(k) * float64(n) * c.BytesPerParam
	return Op{
		Name:  name,
		FLOPs: 2 * float64(rows) * float64(k) * float64(n),
		Bytes: w + float64(rows)*float64(k+n)*c.BytesPerParam,
		M:     rows, K: k, N: n,
		Repeat:      repeat,
		WeightBytes: w,
	}
}
