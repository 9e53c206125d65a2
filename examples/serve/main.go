// Serving example: optimize a workload, pick a Pareto frontier point, then
// actually execute its schedule in the concurrent serving runtime against a
// 10k-request open-loop Poisson trace — the optimize → pick → serve loop
// the rago serve subcommand wraps.
//
// The trace overdrives the schedule at 1.5x its analytical capacity, so
// the report shows true saturation behaviour: sustained QPS pinned at the
// bottleneck tier's throughput (and matching the optimizer's prediction),
// queue-dominated TTFT tails, and full batches everywhere.
package main

import (
	"fmt"
	"log"

	"rago"
)

func main() {
	log.SetFlags(0)

	// 1. Optimize: Case IV (8B query rewriter + 120M reranker, 8B LLM).
	schema := rago.CaseIV(8e9)
	cluster := rago.DefaultCluster()
	front, err := rago.Optimize(schema, rago.DefaultOptions(cluster))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Pick the throughput-optimal frontier point.
	best, ok := rago.MaxQPSPerChip(front)
	if !ok {
		log.Fatal("empty frontier")
	}
	pipe, err := rago.BuildPipeline(schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload:  %s\n", schema.Name)
	fmt.Printf("schedule:  %s\n", best.Item.Describe(pipe))
	fmt.Printf("analytic:  %s\n\n", best.Metrics)

	// 3. Serve a 10k-request Poisson trace at 1.5x analytical capacity,
	// compressing the multi-minute replay into a few wall seconds.
	const n = 10000
	reqs, err := rago.PoissonTrace(n, 1.5*best.Metrics.QPS, 42)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := rago.CompilePlan(schema, best.Item, cluster)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rago.NewServer(plan, rago.ServeOptions{
		Speedup: (n / best.Metrics.QPS) / 5.0, // ~5s of wall time
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(&rep.Report)
}
