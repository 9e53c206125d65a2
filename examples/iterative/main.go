// Iterative: the paper's Case III — decoder-initiated retrievals for
// multi-hop reasoning. Runs the token-level discrete-event simulator to
// show how the iterative batch size trades retrieval efficiency against
// decode idleness (Figs. 9b and 10), then executes the same decode loop
// for real: a compiled Case III plan served by the live concurrent
// runtime, whose measured stall-per-request and saturation QPS land on
// the simulator's and the analytical fixed point's numbers.
package main

import (
	"fmt"
	"log"

	"rago"
)

func main() {
	log.SetFlags(0)

	// Pure batching idleness (zero-cost retrieval rounds): sequences
	// pause at random token positions until enough of them wait to fill
	// an iterative batch. Matching iterative and decode batches is the
	// worst case (paper: up to 2.77x at 64/64).
	fmt.Println("normalized decode latency from batching idleness (zero-cost rounds)")
	fmt.Printf("%-22s", "iter \\ decode batch")
	decBatches := []int{4, 16, 64, 256}
	for _, bd := range decBatches {
		fmt.Printf("%8d", bd)
	}
	fmt.Println()
	for _, bi := range []int{1, 4, 16, 64} {
		fmt.Printf("%-22d", bi)
		for _, bd := range decBatches {
			if bi > bd {
				fmt.Printf("%8s", "-")
				continue
			}
			res, err := rago.RunIterative(rago.IterativeConfig{
				DecodeBatch:      bd,
				IterBatch:        bi,
				DecodeTokens:     256,
				RetrievalsPerSeq: 3, // 4 retrievals: one up front, three while decoding
				StepTime:         0.01,
				Sequences:        300,
				Seed:             1,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8.2f", res.NormalizedLatency)
		}
		fmt.Println()
	}

	// With real retrieval costs the trade-off reverses at large decode
	// batches: tiny iterative batches starve the retrieval tier.
	fmt.Println("\nTPOT (ms) with a 21ms-per-round retrieval tier, decode batch 256:")
	for _, bi := range []int{1, 4, 16, 64} {
		res, err := rago.RunIterative(rago.IterativeConfig{
			DecodeBatch:      256,
			IterBatch:        bi,
			DecodeTokens:     256,
			RetrievalsPerSeq: 3,
			StepTime:         0.01,
			RetrievalLatency: func(batch int) float64 { return 0.021 }, // hyperscale tier, <=21 queries
			Sequences:        200,
			Seed:             1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  iterative batch %-4d TPOT = %6.1f ms\n", bi, res.TPOT*1e3)
	}
	fmt.Println("\nlarger iterative batches amortize the tier; the optimum depends on the decode batch (§5.3)")

	// The same loop, live: compile a Case III schedule and replay a
	// saturating trace through the concurrent serving runtime. Sequences
	// genuinely park at their trigger tokens, batch on the retrieval
	// tier, pass the new content through the prefix group, and resume —
	// the measured stall is the §5.3 fixed point, not a closed form.
	schema := rago.CaseIII(8e9, 4) // 4 retrievals: 1 up front + 3 iterative
	sched := rago.Schedule{
		Groups:           []rago.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 4}},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      32,
		DecodeReplicas:   4,
		IterativeBatch:   16,
	}
	cluster := rago.DefaultCluster()
	plan, err := rago.CompilePlan(schema, sched, cluster)
	if err != nil {
		log.Fatal(err)
	}
	outTokens := plan.Steps[plan.DecodeIdx].Stage.OutTokens
	const n = 3000
	reqs, err := rago.PoissonTrace(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		log.Fatal(err)
	}
	reqs = rago.WithTriggers(reqs, plan.Round.RoundsPerSeq, outTokens, 7)
	srv, err := rago.NewServer(plan, rago.ServeOptions{
		Speedup:      (n / plan.Metrics.QPS) / 6.0, // ~6s of wall time
		FlushTimeout: 0.25,                         // let iterative rounds form full batches
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserving Case III live (decode batch %d, iterative batch %d, %d requests at 1.5x capacity)...\n",
		sched.DecodeBatch, sched.IterativeBatch, n)
	rep, err := srv.Serve(reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(&rep.Report)

	// The token-level simulator at the identical operating point.
	tok, err := rago.RunIterative(rago.IterativeConfig{
		DecodeBatch:      sched.DecodeBatch,
		IterBatch:        sched.IterativeBatch,
		DecodeTokens:     outTokens,
		RetrievalsPerSeq: plan.Round.RoundsPerSeq,
		StepTime:         plan.Round.DecodeStep,
		RetrievalLatency: func(b int) float64 { return plan.StepLatency(plan.IterRetrievalSlot(), b) },
		PrefixLatency:    func(b int) float64 { return plan.StepLatency(plan.IterPrefixSlot(), b) },
		Sequences:        400,
		Seed:             3,
	})
	if err != nil {
		log.Fatal(err)
	}
	simStall := tok.MeanLatency - float64(outTokens)*plan.Round.DecodeStep
	fmt.Printf("\nstall-per-request: live %.3fs  |  token sim %.3fs  |  analytical fixed point %.3fs\n",
		rep.Stall.P50, simStall, plan.Iter.StallPerRequest)
	fmt.Printf("saturation QPS:    live %.2f  |  token sim %.2f  |  analytical %.2f\n",
		rep.SustainedQPS, float64(sched.DecodeBatch)/tok.MeanLatency, plan.Metrics.QPS)
}
