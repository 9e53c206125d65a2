package engine

import (
	"fmt"
	"strings"

	"rago/internal/pipeline"
)

// GroupSchedule is the resolved policy for one XPU placement group.
type GroupSchedule struct {
	// Stages are pipeline stage indices served by this group.
	Stages []int
	// Chips allocated to the group (power of two).
	Chips int
	// Batch is the request batch size every stage in the group runs at.
	Batch int
	// Replicas holds the per-stage data-parallel replica count,
	// parallel to Stages. Empty means one replica for every stage (all
	// chips cooperate on each batch).
	Replicas []int
}

// ReplicasFor returns the replica count for the i-th stage of the group.
func (g GroupSchedule) ReplicasFor(i int) int {
	if i < len(g.Replicas) && g.Replicas[i] >= 1 {
		return g.Replicas[i]
	}
	return 1
}

// Schedule is one complete scheduling decision: where every stage runs,
// with how many resources, at which batch sizes.
type Schedule struct {
	// Groups covers all pre-decode XPU stages, in pipeline order.
	Groups []GroupSchedule
	// RetrievalServers is the CPU server count for the retrieval tier
	// (0 when the workload performs no retrieval). Multi-source fan-out
	// pipelines run one such tier per source.
	RetrievalServers int
	// RetrievalBatch is the batch size of the initial retrieval.
	RetrievalBatch int
	// DecodeChips and DecodeBatch configure the main LLM decode tier.
	DecodeChips int
	DecodeBatch int
	// DecodeReplicas splits the decode chips into data-parallel groups
	// each running its share of the continuous batch (0 means 1).
	DecodeReplicas int
	// IterativeBatch is the batch size for decoder-initiated
	// retrieval/prefix iterations (§6.1 [III]); 0 when not iterative.
	IterativeBatch int
	// FormPolicy is the prefix stage's batch-formation policy. The zero
	// value (FIFO) reproduces the historical pad-to-max behavior bit for
	// bit; Bucketed and SortedWindow trade arrival order for shape
	// similarity to cut padding waste.
	FormPolicy BatchPolicy
	// ChunkQuantum, when positive, turns on chunked prefill: prefix
	// batches execute as fixed-size token chunks (members pad to the
	// quantum instead of the batch maximum) and each member's first token
	// unblocks at its own chunk boundary. 0 means whole-prompt prefill.
	ChunkQuantum int
	// NProbe is the retrieval tier's probe count (IVF cells scanned per
	// query): more probes buy recall with proportionally more scan bytes.
	// 0 means the tier's base configuration (retrieval.BaseNProbe).
	NProbe int
	// ShardFanout is how many index shards the scatter-gather consults
	// per query on a sharded retrieval tier. 0 means all shards; values
	// below the shard count trade recall for scan volume and gather cost.
	ShardFanout int
}

// DecodeReplicasOrOne normalizes the zero value.
func (s Schedule) DecodeReplicasOrOne() int {
	if s.DecodeReplicas >= 1 {
		return s.DecodeReplicas
	}
	return 1
}

// ChipsUsed is the total XPU count the schedule occupies.
func (s Schedule) ChipsUsed() int {
	total := s.DecodeChips
	for _, g := range s.Groups {
		total += g.Chips
	}
	return total
}

// Describe renders the schedule against its pipeline, in the spirit of the
// paper's Table 4 rows.
func (s Schedule) Describe(p pipeline.Pipeline) string {
	var b strings.Builder
	for _, g := range s.Groups {
		names := make([]string, len(g.Stages))
		for i, idx := range g.Stages {
			names[i] = p.Stages[idx].Kind.String()
			if r := g.ReplicasFor(i); r > 1 {
				names[i] += fmt.Sprintf("(x%d)", r)
			}
		}
		fmt.Fprintf(&b, "[%s chips=%d batch=%d] ", strings.Join(names, "+"), g.Chips, g.Batch)
	}
	if s.RetrievalServers > 0 {
		fmt.Fprintf(&b, "[retrieval servers=%d batch=%d", s.RetrievalServers, s.RetrievalBatch)
		if n := len(p.Indices(pipeline.KindRetrieval)); n > 1 {
			fmt.Fprintf(&b, " x%d sources", n)
		}
		b.WriteString("] ")
	}
	fmt.Fprintf(&b, "[decode chips=%d batch=%d", s.DecodeChips, s.DecodeBatch)
	if r := s.DecodeReplicasOrOne(); r > 1 {
		fmt.Fprintf(&b, " x%d", r)
	}
	if s.IterativeBatch > 0 {
		fmt.Fprintf(&b, " iter-batch=%d", s.IterativeBatch)
	}
	b.WriteString("]")
	if s.FormPolicy != PolicyFIFO {
		fmt.Fprintf(&b, " [form=%s]", s.FormPolicy)
	}
	if s.ChunkQuantum > 0 {
		fmt.Fprintf(&b, " [chunk=%d]", s.ChunkQuantum)
	}
	if s.NProbe > 0 {
		fmt.Fprintf(&b, " [nprobe=%d]", s.NProbe)
	}
	if s.ShardFanout > 0 {
		fmt.Fprintf(&b, " [fanout=%d]", s.ShardFanout)
	}
	return b.String()
}

// Validate checks structural consistency against a pipeline.
func (s Schedule) Validate(p pipeline.Pipeline) error {
	for i, g := range s.Groups {
		if g.Chips < 1 {
			return fmt.Errorf("engine: group %d has %d chips", i, g.Chips)
		}
		if g.Batch < 1 {
			return fmt.Errorf("engine: group %d has batch %d", i, g.Batch)
		}
		if len(g.Replicas) != 0 && len(g.Replicas) != len(g.Stages) {
			return fmt.Errorf("engine: group %d replicas/stages length mismatch", i)
		}
		for j := range g.Stages {
			r := g.ReplicasFor(j)
			if r < 1 || g.Chips%r != 0 {
				return fmt.Errorf("engine: group %d stage %d replicas %d do not divide %d chips", i, j, r, g.Chips)
			}
		}
	}
	if !s.coversPreDecode(p) {
		// Only the failure path builds the placement, for its error text.
		pl := pipeline.Placement{Groups: make([]pipeline.Group, len(s.Groups))}
		for i, g := range s.Groups {
			pl.Groups[i] = pipeline.Group{Stages: g.Stages}
		}
		if err := pl.Validate(p); err != nil {
			return err
		}
	}
	if s.DecodeChips < 1 || s.DecodeBatch < 1 {
		return fmt.Errorf("engine: decode tier unconfigured")
	}
	if r := s.DecodeReplicasOrOne(); s.DecodeChips%r != 0 {
		return fmt.Errorf("engine: decode replicas %d do not divide %d chips", r, s.DecodeChips)
	}
	hasRetrieval := p.Index(pipeline.KindRetrieval) >= 0
	if hasRetrieval && (s.RetrievalServers < 1 || s.RetrievalBatch < 1) {
		return fmt.Errorf("engine: retrieval tier unconfigured")
	}
	if !hasRetrieval && s.RetrievalServers != 0 {
		return fmt.Errorf("engine: retrieval servers set for retrieval-free pipeline")
	}
	if p.Schema.Iterative() && s.IterativeBatch < 1 {
		return fmt.Errorf("engine: iterative workload without iterative batch")
	}
	if s.FormPolicy < PolicyFIFO || s.FormPolicy > PolicySorted {
		return fmt.Errorf("engine: unknown batch-formation policy %d", int(s.FormPolicy))
	}
	if s.ChunkQuantum < 0 {
		return fmt.Errorf("engine: negative chunk quantum %d", s.ChunkQuantum)
	}
	if s.NProbe < 0 {
		return fmt.Errorf("engine: negative nprobe %d", s.NProbe)
	}
	if s.ShardFanout < 0 {
		return fmt.Errorf("engine: negative shard fanout %d", s.ShardFanout)
	}
	if !hasRetrieval && (s.NProbe != 0 || s.ShardFanout != 0) {
		return fmt.Errorf("engine: retrieval knobs set for retrieval-free pipeline")
	}
	return nil
}

// coversPreDecode is pipeline.Placement.Validate's check done in place: the
// groups are non-empty and their stages, concatenated, are exactly the
// pipeline's pre-decode XPU stages in order.
func (s Schedule) coversPreDecode(p pipeline.Pipeline) bool {
	next := 0 // next pipeline stage to match
	for _, g := range s.Groups {
		if len(g.Stages) == 0 {
			return false
		}
		for _, idx := range g.Stages {
			for next < len(p.Stages) && p.Stages[next].Kind != pipeline.KindDecode && !p.Stages[next].Kind.OnXPU() {
				next++
			}
			if next >= len(p.Stages) || p.Stages[next].Kind == pipeline.KindDecode || idx != next {
				return false
			}
			next++
		}
	}
	for next < len(p.Stages) && p.Stages[next].Kind != pipeline.KindDecode {
		if p.Stages[next].Kind.OnXPU() {
			return false // an uncovered pre-decode XPU stage
		}
		next++
	}
	return true
}
