// Command benchmark is the repo's benchmark driver: it runs one RAG serving
// workload in a fresh process through five timed phases (plan, sim, live
// paced, dispatch, search), checks the outputs, and prints every metric
// declared in BENCHMARK.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// manifest is BENCHMARK.json: the one place metric names, units and bounds
// are declared. The driver reads it at run time, so a metric it measures
// but the file does not declare (or the reverse) fails the run.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the JSON object printed as the last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outFile is what -out writes: the result plus what produced it, the input
// of -compare.
type outFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Failures []string `json:"failures,omitempty"`
	// HostReps keeps the seconds of every repetition of every host-timed
	// unit, so another statistic than the median can be tried offline.
	HostReps map[string][]float64 `json:"host_reps,omitempty"`
	result
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	manifest string
	out      string
	spans    string
}

func main() {
	var cfg config
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", refSeconds, "seconds the timed phases measure for")
	flag.IntVar(&cfg.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke size: ~1/20 of the work, one repetition per phase")
	flag.StringVar(&cfg.manifest, "manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.StringVar(&cfg.out, "out", "", "also write the result as JSON to this file")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: write the driver's spans as Chrome trace_event JSON to this file")
	flag.BoolVar(&compare, "compare", false, "compare two sets of -out files: -compare A.json[,A2.json...] B.json[,B2.json...]")
	flag.Parse()

	man, err := loadManifest(cfg.manifest)
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two arguments, each a comma-separated list of -out files"))
		}
		worse, err := compareFiles(man, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	out, err := execute(cfg, man)
	if err != nil {
		fatal(err)
	}
	for _, f := range out.Failures {
		fmt.Println("FAILED", f)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.6g %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// execute runs one workload and assembles the declared metrics.
func execute(cfg config, man *manifest) (*outFile, error) {
	start := time.Now()
	sc, err := scenarioByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", cfg.seconds)
	}
	sz := sizes{scale: cfg.seconds / refSeconds, corpus: corpusSize}
	rounds, micro := 5, 20*time.Millisecond
	if cfg.quick {
		micro = 2 * time.Millisecond
		sz = sizes{scale: 0.05, corpus: corpusSize / 5, quick: true}
		cfg.seconds = 1
	}
	if cfg.quick || cfg.trace == 1 {
		rounds = 1
	}
	r := &run{
		sc: sc, seed: cfg.seed, sz: sz, seconds: cfg.seconds, rounds: rounds, micro: micro, traced: cfg.trace == 1,
		rec:       newRecorder(cfg.trace == 1, sc.name),
		metrics:   map[string]float64{},
		reps:      map[string][]float64{},
		phaseWall: map[string]float64{},
	}
	if err := r.measure(); err != nil {
		return nil, err
	}
	if r.traced {
		if err := r.layers(); err != nil {
			return nil, err
		}
		if cfg.spans != "" {
			if err := r.rec.writeChrome(cfg.spans); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: wall %.1fs, phases %v\n", sc.name, cfg.seed, time.Since(start).Seconds(), r.phaseWall)
	r.set("peak_rss_mb", peakRSSMB())
	r.set("bench.wall_s", time.Since(start).Seconds())

	decls := man.EndToEnd
	if r.traced {
		decls = man.PerLayer
	}
	out := &outFile{Workload: sc.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	out.Metrics = map[string]value{}
	for _, d := range decls {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check("manifest.emitted", false, "declared metric %s not measured (got %v)", d.Name, v)
			continue
		}
		out.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	all := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), man.EndToEnd...), man.PerLayer...) {
		all[d.Name] = true
	}
	for name := range r.metrics {
		if !all[name] {
			r.check("manifest.declared", false, "measured metric %s is not declared in BENCHMARK.json", name)
		}
	}
	out.Correct = len(r.failures) == 0
	out.Attempted, out.Failed, out.Failures, out.HostReps = r.attempted, r.failed, r.failures, r.reps
	return out, nil
}
