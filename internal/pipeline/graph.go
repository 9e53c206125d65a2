package pipeline

import "fmt"

// The stage graph. A Pipeline's Stages are nodes in topological order;
// Succ lists each node's forward edges. A nil Succ is the common linear
// case (stage i feeds stage i+1), which every classic Fig. 3 schema
// builds; multi-source schemas build explicit fan-out/join edges. All
// graph accessors treat the two representations uniformly, so executors
// written against Succs/Preds/Entries run linear chains unchanged.

// Linear reports whether the pipeline is a plain chain.
func (p Pipeline) Linear() bool { return p.Succ == nil }

// Succs returns the successor stage indices of stage i.
func (p Pipeline) Succs(i int) []int {
	if p.Succ == nil {
		if i+1 < len(p.Stages) {
			return []int{i + 1}
		}
		return nil
	}
	return p.Succ[i]
}

// Preds returns, per stage, its predecessor stage indices.
func (p Pipeline) Preds() [][]int {
	preds := make([][]int, len(p.Stages))
	for i := range p.Stages {
		for _, s := range p.Succs(i) {
			preds[s] = append(preds[s], i)
		}
	}
	return preds
}

// Entries returns the stages with no predecessors — where a request
// starts. A linear pipeline has exactly one.
func (p Pipeline) Entries() []int {
	indeg := make([]int, len(p.Stages))
	for i := range p.Stages {
		for _, s := range p.Succs(i) {
			indeg[s]++
		}
	}
	var out []int
	for i, d := range indeg {
		if d == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Reaches reports whether a forward path of at least one edge leads from
// stage a to stage b.
func (p Pipeline) Reaches(a, b int) bool {
	if p.Succ == nil {
		return a < b
	}
	if a == b {
		return false
	}
	// Edges only go forward (ValidateGraph), so a bounded scan suffices.
	seen := make([]bool, len(p.Stages))
	stack := []int{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.Succs(n) {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Indices returns every stage index of the given kind, in topological
// order (Index returns just the first).
func (p Pipeline) Indices(k Kind) []int {
	var out []int
	for i := range p.Stages {
		if p.Stages[i].Kind == k {
			out = append(out, i)
		}
	}
	return out
}

// ValidateGraph checks the structural invariants every executor relies
// on: stages are topologically ordered (edges strictly forward), the
// pipeline has exactly one prefix and one decode stage, decode is the
// unique exit, and every non-entry stage is fed by some edge.
func (p Pipeline) ValidateGraph() error {
	n := len(p.Stages)
	if n == 0 {
		return fmt.Errorf("pipeline: no stages")
	}
	if p.Succ != nil && len(p.Succ) != n {
		return fmt.Errorf("pipeline: %d stages but %d successor lists", n, len(p.Succ))
	}
	if d := len(p.Indices(KindDecode)); d != 1 {
		return fmt.Errorf("pipeline: has %d decode stages, want exactly 1 (a schedule's decode tier has nothing to run)", d)
	}
	if d := len(p.Indices(KindPrefix)); d != 1 {
		return fmt.Errorf("pipeline: has %d prefix stages, want exactly 1", d)
	}
	decIdx := p.Index(KindDecode)
	indeg := make([]int, n)
	for i := range p.Stages {
		succs := p.Succs(i)
		if len(succs) == 0 && i != decIdx {
			return fmt.Errorf("pipeline: stage %d (%v) is a dead end; only decode may terminate the graph", i, p.Stages[i].Kind)
		}
		for _, s := range p.Succs(i) {
			if s <= i || s >= n {
				return fmt.Errorf("pipeline: edge %d -> %d violates topological stage order", i, s)
			}
			indeg[s]++
		}
	}
	if indeg[decIdx] == 0 && n > 1 {
		return fmt.Errorf("pipeline: decode stage is unreachable")
	}
	return nil
}
