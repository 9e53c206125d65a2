package core

import (
	"fmt"
	"math"

	"rago/internal/pipeline"
)

// BurstTTFT models §7.2's micro-batching study (Fig. 19): a burst of
// `burst` simultaneous user requests is split into micro-batches of size
// `micro` that flow through the pre-decode pipeline stages back to back.
// Stages overlap across micro-batches (stage i works on micro-batch m+1
// while stage i+1 works on m), so a request's TTFT is the pipeline
// traversal of its own micro-batch plus the queueing of the micro-batches
// ahead of it at the bottleneck stage.
//
// It returns the mean TTFT across the burst. micro == burst reduces to the
// unsplit baseline the paper's reduction percentages are computed against.
func (o *Optimizer) BurstTTFT(plan Plan, burst, micro int) (float64, error) {
	if burst < 1 || micro < 1 {
		return 0, fmt.Errorf("core: burst %d / micro-batch %d must be positive", burst, micro)
	}
	if micro > burst {
		micro = burst
	}
	nBatches := (burst + micro - 1) / micro

	// Per-micro-batch service time at each sequential resource: each
	// placement group is one resource; retrieval is one resource.
	var stageTimes []float64
	for gi, g := range plan.Placement.Groups {
		var t float64
		for _, idx := range g.Stages {
			pt := o.Prof.Eval(o.Pipe.Stages[idx], plan.GroupChips[gi], micro)
			if !pt.OK {
				return 0, fmt.Errorf("core: stage %v infeasible at micro-batch %d",
					o.Pipe.Stages[idx].Kind, micro)
			}
			t += pt.Latency
		}
		stageTimes = append(stageTimes, t)
	}
	if retrIdx := o.Pipe.Index(pipeline.KindRetrieval); retrIdx >= 0 {
		pt := o.Prof.Eval(o.Pipe.Stages[retrIdx], plan.Servers, micro)
		if !pt.OK {
			return 0, fmt.Errorf("core: retrieval infeasible at micro-batch %d", micro)
		}
		// Insert retrieval at its pipeline position: after the groups
		// whose stages precede it.
		pos := 0
		for gi, g := range plan.Placement.Groups {
			if g.Stages[0] < retrIdx {
				pos = gi + 1
			}
		}
		stageTimes = append(stageTimes[:pos], append([]float64{pt.Latency + o.Prof.RetrievalTransferLatency()}, stageTimes[pos:]...)...)
	}

	var traversal, bottleneck float64
	for _, t := range stageTimes {
		traversal += t
		bottleneck = math.Max(bottleneck, t)
	}
	// Micro-batch m (0-based) finishes ~ m*bottleneck + traversal; the
	// mean over the burst averages the queueing term. The conversion rounds
	// the product, so no architecture fuses it into the sum.
	mean := traversal + float64(float64(nBatches-1)/2*bottleneck)
	return mean, nil
}

// BurstTTFTReduction returns the percentage TTFT reduction micro-batching
// at size micro achieves over processing the whole burst as one batch
// (the quantity Fig. 19 tabulates).
func (o *Optimizer) BurstTTFTReduction(plan Plan, burst, micro int) (float64, error) {
	whole, err := o.BurstTTFT(plan, burst, burst)
	if err != nil {
		return 0, err
	}
	split, err := o.BurstTTFT(plan, burst, micro)
	if err != nil {
		return 0, err
	}
	if whole <= 0 {
		return 0, fmt.Errorf("core: degenerate zero baseline TTFT")
	}
	red := (1 - split/whole) * 100
	if red < 0 {
		red = 0 // splitting never *has* to be used; report no gain
	}
	return red, nil
}
