// Command rago runs the RAGO schedule optimizer for a RAGSchema and, with
// the serve subcommand, executes an optimized schedule in the live
// concurrent serving runtime against a synthetic or recorded request
// trace — optionally under the SLO-aware online controller.
//
// Usage:
//
//	rago [optimize] -schema workload.json [-hosts 16] [-chip XPU-C] [-normalize 0] [-baseline]
//	rago [optimize] -preset case2 [-context 1000000] [-model 70e9]
//	rago serve -preset case4 [-n 10000] [-rate 0] [-point maxqps] [-db 0] [-json]
//	rago serve -preset case4 -arrivals diurnal [-amplitude 0.8] [-period 300] [-save-trace day.json]
//	rago serve -preset case4 -controller -slo-ttft 1.0 [-trace day.json]
//
// With no -schema, -preset selects one of the paper's Table 3 workloads:
// case1, case2, case3, case4, case5, llm-only. The optimize subcommand (the
// default) prints the performance Pareto frontier with its schedules; the
// serve subcommand replays an open-loop trace through a chosen frontier
// point and prints the measured latency report. With -controller, serve
// instead compiles the SLO-feasible frontier into a plan library and lets
// the online controller hot-swap the live runtime between plans as the
// (typically time-varying: -arrivals diurnal|mmpp|gamma, or a -trace
// file) load shifts, reporting plan switches and chip-seconds against
// static peak provisioning.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rago/internal/core"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/ragschema"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rago: ")

	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			runServe(args[1:])
			return
		case "optimize":
			args = args[1:]
		}
	}
	runOptimize(args)
}

// workloadFlags registers the schema/cluster selection flags shared by the
// optimize and serve subcommands.
type workloadFlags struct {
	schemaPath *string
	preset     *string
	model      *float64
	queries    *int
	context    *int
	retrievals *int
	sources    *int
	hosts      *int
	chip       *string
}

func addWorkloadFlags(fs *flag.FlagSet) workloadFlags {
	return workloadFlags{
		schemaPath: fs.String("schema", "", "path to a RAGSchema JSON file"),
		preset:     fs.String("preset", "", "preset workload: case1|case2|case3|case4|case5|llm-only"),
		model:      fs.Float64("model", 70e9, "generative model parameters for presets"),
		queries:    fs.Int("queries", 1, "query vectors per retrieval (case1)"),
		context:    fs.Int("context", 1_000_000, "context tokens (case2)"),
		retrievals: fs.Int("retrievals", 4, "retrievals per sequence (case3)"),
		sources:    fs.Int("sources", 2, "parallel retrieval sources (case5)"),
		hosts:      fs.Int("hosts", 16, "host servers (4 XPUs each)"),
		chip:       fs.String("chip", "XPU-C", "accelerator generation: XPU-A|XPU-B|XPU-C"),
	}
}

func (w workloadFlags) load() (ragschema.Schema, hw.Cluster, error) {
	schema, err := loadSchema(*w.schemaPath, *w.preset, *w.model, *w.queries, *w.context, *w.retrievals, *w.sources)
	if err != nil {
		return ragschema.Schema{}, hw.Cluster{}, err
	}
	xpu, err := hw.XPUByName(*w.chip)
	if err != nil {
		return ragschema.Schema{}, hw.Cluster{}, err
	}
	return schema, hw.Cluster{Chip: xpu, Host: hw.EPYCHost, Hosts: *w.hosts}, nil
}

func runOptimize(args []string) {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	var (
		normalize  = fs.Int("normalize", 0, "fixed chip count for QPS/chip normalization (0 = allocated)")
		baseline   = fs.Bool("baseline", false, "also evaluate the LLM-system-extension baseline")
		maxPoints  = fs.Int("max-points", 20, "frontier points to print (0 = all)")
		workers    = fs.Int("workers", 0, "parallel search workers (0 = GOMAXPROCS)")
		shards     = fs.Int("shards", 0, "model the retrieval tier as this many scatter-gather shards, with recall calibrated on a synthetic index (0/1 = single index)")
		nprobes    = fs.String("nprobes", "", "comma-separated nprobe values the search enumerates as schedule knobs (0 = tier base; empty = base only)")
		fanouts    = fs.String("fanouts", "", "comma-separated shard-fanout values the search enumerates (0 = all shards; empty = all shards only)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the search to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile after the search to this file")
	)
	fs.Parse(args)

	schema, cluster, err := wf.load()
	if err != nil {
		log.Fatal(err)
	}
	npList, err := parseIntList("-nprobes", *nprobes)
	if err != nil {
		log.Fatal(err)
	}
	foList, err := parseIntList("-fanouts", *fanouts)
	if err != nil {
		log.Fatal(err)
	}
	if *shards <= 1 && len(foList) > 0 {
		log.Fatal("-fanouts needs -shards > 1")
	}

	opts := core.DefaultOptions(cluster)
	opts.NormalizeChips = *normalize
	opts.Workers = *workers
	opts.NProbes = npList
	opts.ShardFanouts = foList

	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *shards > 1 {
		// No real corpus on the optimize path: calibrate the recall
		// surface on a small synthetic clustered index sharded the same
		// way, so the frontier carries a measured quality axis.
		_, _, mod, err := syntheticIndex(20000, 64, *shards, 1, 10, npList, foList, 1)
		if err != nil {
			log.Fatal(err)
		}
		o.Prof.Shards = *shards
		o.Prof.RecallMod = mod
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	front := o.Optimize()
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	if len(front) == 0 {
		log.Fatal("no feasible schedule under the given resources")
	}

	fmt.Printf("workload: %s\n", schema.Name)
	fmt.Printf("cluster:  %d hosts x %d %s = %d XPUs\n", cluster.Hosts, cluster.Host.XPUsPerHost, cluster.Chip.Name, cluster.XPUs())
	fmt.Printf("%s\n", o.SearchStats())
	fmt.Printf("frontier: %d Pareto-optimal schedules\n\n", len(front))

	printFrontier(o, front, *maxPoints)

	if best, ok := perf.MaxQPSPerChip(front); ok {
		fmt.Printf("\nmax QPS/chip: %s\n  %s\n", best.Metrics, best.Item.Describe(o.Pipe))
	}
	if best, ok := perf.MinTTFT(front); ok {
		fmt.Printf("min TTFT:     %s\n  %s\n", best.Metrics, best.Item.Describe(o.Pipe))
	}

	if *baseline {
		base := o.BaselineFrontier()
		if bb, ok := perf.MaxQPSPerChip(base); ok {
			rb, _ := perf.MaxQPSPerChip(front)
			fmt.Printf("\nbaseline max QPS/chip: %s\n  %s\n", bb.Metrics, bb.Item.Describe(o.Pipe))
			fmt.Printf("RAGO gain: %.2fx QPS/chip\n", rb.Metrics.QPSPerChip/bb.Metrics.QPSPerChip)
		}
	}
}

func loadSchema(path, preset string, model float64, queries, context, retrievals, sources int) (ragschema.Schema, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return ragschema.Schema{}, err
		}
		return ragschema.DecodeJSON(data)
	}
	switch strings.ToLower(preset) {
	case "case1":
		return ragschema.CaseI(model, queries), nil
	case "case2":
		return ragschema.CaseII(model, context), nil
	case "case3":
		return ragschema.CaseIII(model, retrievals), nil
	case "case4":
		return ragschema.CaseIV(model), nil
	case "case5":
		return ragschema.CaseV(model, sources), nil
	case "llm-only":
		return ragschema.LLMOnly(model), nil
	case "":
		return ragschema.Schema{}, fmt.Errorf("need -schema or -preset (case1|case2|case3|case4|case5|llm-only)")
	default:
		return ragschema.Schema{}, fmt.Errorf("unknown preset %q", preset)
	}
}

func printFrontier(o *core.Optimizer, front []core.SchedulePoint, max int) {
	withRecall := false
	for _, p := range front {
		withRecall = withRecall || p.Metrics.Recall > 0
	}
	if withRecall {
		fmt.Printf("%12s %12s %12s %12s %10s  schedule\n", "TTFT(s)", "TPOT(s)", "QPS", "QPS/chip", "recall")
	} else {
		fmt.Printf("%12s %12s %12s %12s  schedule\n", "TTFT(s)", "TPOT(s)", "QPS", "QPS/chip")
	}
	step := 1
	if max > 0 && len(front) > max {
		step = len(front) / max
	}
	for i := 0; i < len(front); i += step {
		p := front[i]
		if withRecall {
			fmt.Printf("%12.4f %12.4f %12.2f %12.3f %10.3f  %s\n",
				p.Metrics.TTFT, p.Metrics.TPOT, p.Metrics.QPS, p.Metrics.QPSPerChip, p.Metrics.Recall, p.Item.Describe(o.Pipe))
			continue
		}
		fmt.Printf("%12.4f %12.4f %12.2f %12.3f  %s\n",
			p.Metrics.TTFT, p.Metrics.TPOT, p.Metrics.QPS, p.Metrics.QPSPerChip, p.Item.Describe(o.Pipe))
	}
}
