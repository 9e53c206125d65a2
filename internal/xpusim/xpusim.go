// Package xpusim is the XPU inference performance simulator (§4a of the
// paper). It models a model's prefix and decode phases as sequences of
// operators; each operator is timed with a roofline (max of compute and
// memory time, Fig. 4), compute rates are derated by a systolic-array
// fill-efficiency model, and multi-chip execution pays interconnect costs
// for tensor-parallel all-reduces and pipeline-parallel activation
// transfers.
//
// The simulator searches over tensor/pipeline/hybrid sharding strategies
// exactly as the paper describes, returning either all feasible candidates
// (for Pareto exploration) or the latency-optimal one.
package xpusim

import (
	"fmt"
	"math"

	"rago/internal/hw"
	"rago/internal/model"
	"rago/internal/roofline"
)

// Params are the simulator calibration constants. The paper's in-house
// simulator is calibrated against production accelerators; we expose the
// three standard knobs and fix them so the model
// reproduces the paper's published anchor numbers.
type Params struct {
	// ComputeDerate is the achievable fraction of peak FLOPS on top of
	// systolic fill efficiency (compiler/kernel overheads).
	ComputeDerate float64
	// MemUtil is the achievable fraction of peak HBM bandwidth.
	MemUtil float64
	// NetUtil is the achievable fraction of peak interconnect bandwidth.
	NetUtil float64
	// OpOverhead is a fixed per-operator dispatch overhead in seconds.
	OpOverhead float64
	// CollectiveLatency is the fixed per-hop latency of an all-reduce
	// step in seconds; the bandwidth-optimal ring pays log2(n) of them.
	// It is what makes very wide tensor parallelism of small models
	// unprofitable even when the bandwidth term is negligible.
	CollectiveLatency float64
	// HBMReserve is the fraction of HBM reserved for activations and
	// runtime scratch, unavailable to weights and KV cache.
	HBMReserve float64
	// MaxTensorParallel caps the tensor-parallel degree (all-reduce
	// latency and head-count limits make very wide TP unprofitable).
	MaxTensorParallel int
}

// DefaultParams returns the calibration used for all paper reproductions.
func DefaultParams() Params {
	return Params{
		ComputeDerate:     0.85,
		MemUtil:           0.85,
		NetUtil:           0.80,
		OpOverhead:        3e-6,
		CollectiveLatency: 5e-6,
		HBMReserve:        0.10,
		MaxTensorParallel: 64,
	}
}

// Simulator evaluates inference phases on a given chip.
type Simulator struct {
	Chip hw.XPU
	P    Params
}

// New returns a simulator for the chip with default calibration.
func New(chip hw.XPU) Simulator { return Simulator{Chip: chip, P: DefaultParams()} }

// Result is one evaluated (sharding, batch) operating point.
type Result struct {
	// Latency is seconds to process the batch: for prefix, the full
	// prompt pass; for decode, one auto-regressive step.
	Latency float64
	// Throughput is the steady-state rate: prompts/s for prefix
	// (pipeline-parallel stages overlap consecutive batches) and
	// tokens/s for decode.
	Throughput float64
	// TP and PP are the chosen tensor- and pipeline-parallel degrees.
	TP, PP int
	// Chips = TP*PP.
	Chips int
}

func (r Result) String() string {
	return fmt.Sprintf("lat=%.4fs thr=%.1f/s tp=%d pp=%d", r.Latency, r.Throughput, r.TP, r.PP)
}

// shardedOpTime returns the execution time of one instance of op under
// tensor parallelism of degree tp.
func (s Simulator) shardedOpTime(op model.Op, tp int) float64 {
	flops := op.FLOPs / float64(tp)
	bytes := op.Bytes / float64(tp)
	m, k, n := op.M, op.K, op.N

	compRate := s.Chip.PeakFLOPS * s.P.ComputeDerate
	if m > 0 && k > 0 && n > 0 {
		// Weighted ops shard their output (column-parallel) or
		// reduction (row-parallel) dimension; either way the per-chip
		// matmul shrinks on one non-row axis. We shard N when
		// possible, else K, matching Megatron-style layouts.
		if n >= tp {
			n = n / tp
		} else if k >= tp {
			k = k / tp
		}
		compRate *= roofline.MatmulEfficiency(m, k, n, s.Chip.SystolicDim)
	}
	memRate := s.Chip.MemBW * s.P.MemUtil
	return roofline.OpTime(flops, bytes, compRate, memRate) + s.P.OpOverhead
}

// phaseTime evaluates an operator list under (tp, pp) sharding.
//
// rows is the activation row count crossing layer boundaries (batch*seqLen
// for prefix, batch for decode) and width the residual-stream bytes per
// row; together they size tensor-parallel all-reduce payloads and
// pipeline-stage boundary transfers.
//
// It returns the end-to-end latency (all stages traversed) and the
// bottleneck stage time (the pipelined steady-state interval).
func (s Simulator) phaseTime(ops []model.Op, layers, tp, pp, rows int, width float64) (latency, bottleneck float64) {
	if len(ops) == 0 {
		return 0, 0
	}
	// Per-layer time: ops with Repeat == layers are per-layer; others
	// (LM head) run once in the final stage.
	var perLayer, once float64
	for _, op := range ops {
		t := s.shardedOpTime(op, tp)
		if op.Repeat == layers {
			perLayer += t
		} else {
			once += float64(t * float64(op.Repeat))
		}
	}
	// Tensor-parallel all-reduces: two per layer (post-attention,
	// post-MLP), ring all-reduce of the full activation block plus the
	// fixed per-hop collective latency.
	if tp > 1 {
		payload := float64(rows) * width
		perChip := roofline.AllReduceBytes(payload, tp)
		hop := float64(s.P.CollectiveLatency * math.Log2(float64(tp)))
		perLayer += float64(2 * (roofline.CommTime(perChip, s.Chip.InterChipBW*s.P.NetUtil) + hop))
	}

	layersPerStage := float64(layers) / float64(pp)
	stage := float64(perLayer * layersPerStage)
	lastStage := stage + once

	// Pipeline boundary transfers.
	var comm float64
	if pp > 1 {
		boundary := roofline.CommTime(float64(rows)*width, s.Chip.InterChipBW*s.P.NetUtil)
		comm = float64(pp-1) * boundary
	}
	latency = float64(stage*float64(pp-1)) + lastStage + comm
	bottleneck = math.Max(stage, lastStage)
	return latency, bottleneck
}

// memFeasible reports whether weights plus KV cache fit across the chips.
func (s Simulator) memFeasible(cfg model.Config, kvTokens float64, chips int) bool {
	usable := s.Chip.HBMBytes * (1 - s.P.HBMReserve) * float64(chips)
	need := float64(cfg.ParamBytes()) + float64(kvTokens*cfg.KVBytesPerToken())
	return need <= usable
}

// shardings enumerates (tp, pp) splits of chips (all powers of two).
func (s Simulator) shardings(chips, layers int) [][2]int {
	var out [][2]int
	for _, tp := range roofline.Pow2Range(1, chips) {
		if tp > s.P.MaxTensorParallel {
			continue
		}
		pp := chips / tp
		if tp*pp != chips || pp > layers {
			continue
		}
		out = append(out, [2]int{tp, pp})
	}
	return out
}

// PrefixCandidates evaluates every feasible sharding for processing a
// batch of seqLen-token prompts on chips accelerators. It returns nil when
// the model cannot fit.
func (s Simulator) PrefixCandidates(cfg model.Config, seqLen, batch, chips int) []Result {
	if seqLen <= 0 || batch <= 0 || chips <= 0 {
		return nil
	}
	kvTokens := float64(batch) * float64(seqLen)
	if !s.memFeasible(cfg, kvTokens, chips) {
		return nil
	}
	ops := cfg.PrefixOps(seqLen, batch)
	rows := batch * seqLen
	width := float64(cfg.DModel) * cfg.BytesPerParam
	var out []Result
	for _, sh := range s.shardings(chips, cfg.Layers) {
		tp, pp := sh[0], sh[1]
		lat, bottleneck := s.phaseTime(ops, cfg.Layers, tp, pp, rows, width)
		if math.IsInf(lat, 1) || lat <= 0 {
			continue
		}
		out = append(out, Result{
			Latency:    lat,
			Throughput: float64(batch) / bottleneck,
			TP:         tp, PP: pp, Chips: chips,
		})
	}
	return out
}

// Prefix returns the latency-optimal sharding for the prefix phase, or an
// error when no sharding fits.
func (s Simulator) Prefix(cfg model.Config, seqLen, batch, chips int) (Result, error) {
	cands := s.PrefixCandidates(cfg, seqLen, batch, chips)
	if len(cands) == 0 {
		return Result{}, fmt.Errorf("xpusim: %s prefix (L=%d B=%d) infeasible on %d chips", cfg.Name, seqLen, batch, chips)
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Latency < best.Latency {
			best = c
		}
	}
	return best, nil
}

// DecodeStepCandidates evaluates every feasible sharding for one decode
// step at the given batch and average live context length.
func (s Simulator) DecodeStepCandidates(cfg model.Config, batch, ctxLen, chips int) []Result {
	if cfg.EncoderOnly || batch <= 0 || ctxLen < 0 || chips <= 0 {
		return nil
	}
	kvTokens := float64(batch) * float64(ctxLen)
	if !s.memFeasible(cfg, kvTokens, chips) {
		return nil
	}
	ops := cfg.DecodeOps(batch, ctxLen)
	width := float64(cfg.DModel) * cfg.BytesPerParam
	var out []Result
	for _, sh := range s.shardings(chips, cfg.Layers) {
		tp, pp := sh[0], sh[1]
		lat, _ := s.phaseTime(ops, cfg.Layers, tp, pp, batch, width)
		if math.IsInf(lat, 1) || lat <= 0 {
			continue
		}
		// Decode is auto-regressive: the next token of a batch cannot
		// start before the previous finishes, so the step interval is
		// the full traversal; pipeline parallelism does not shorten it.
		out = append(out, Result{
			Latency:    lat,
			Throughput: float64(batch) / lat,
			TP:         tp, PP: pp, Chips: chips,
		})
	}
	return out
}

// DecodeStep returns the latency-optimal sharding for one decode step, or
// an error when no sharding fits.
func (s Simulator) DecodeStep(cfg model.Config, batch, ctxLen, chips int) (Result, error) {
	cands := s.DecodeStepCandidates(cfg, batch, ctxLen, chips)
	if len(cands) == 0 {
		return Result{}, fmt.Errorf("xpusim: %s decode (B=%d ctx=%d) infeasible on %d chips", cfg.Name, batch, ctxLen, chips)
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Latency < best.Latency {
			best = c
		}
	}
	return best, nil
}

// MaxDecodeBatch returns the largest power-of-two batch whose KV cache
// fits alongside the weights on chips accelerators at the given context
// length; zero when even batch 1 does not fit.
func (s Simulator) MaxDecodeBatch(cfg model.Config, ctxLen, chips int) int {
	best := 0
	for b := 1; b <= 1<<20; b <<= 1 {
		if s.memFeasible(cfg, float64(b)*float64(ctxLen), chips) {
			best = b
		} else {
			break
		}
	}
	return best
}

// MinChips returns the smallest power-of-two chip count on which the model
// weights fit (with reserve), independent of KV cache.
func (s Simulator) MinChips(cfg model.Config) int {
	for c := 1; c <= 1<<16; c <<= 1 {
		if s.memFeasible(cfg, 0, c) {
			return c
		}
	}
	return 0
}
