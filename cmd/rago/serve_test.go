package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rago/internal/control"
	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/perf"
	"rago/internal/serve"
	"rago/internal/trace"
)

// captureOutput runs fn with os.Stdout and os.Stderr redirected to files
// and returns what it wrote to each.
func captureOutput(t *testing.T, fn func()) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outPath, errPath := filepath.Join(dir, "stdout"), filepath.Join(dir, "stderr")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	errF, err := os.Create(errPath)
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, errF
	fn()
	os.Stdout, os.Stderr = oldOut, oldErr
	o, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	e, err := os.ReadFile(errPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(o), string(e)
}

// TestServeShardedReportsServedPoint: a static sharded `rago serve` serves
// the plan the optimizer priced, so the report's analytic reference is the
// frontier point the preamble names, calibrated recall included.
func TestServeShardedReportsServedPoint(t *testing.T) {
	stdout, stderr := captureOutput(t, func() {
		runServe([]string{"-preset", "case1", "-db", "4000", "-shards", "4", "-n", "300", "-speedup", "1e6", "-json"})
	})
	var rep serve.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}
	if rep.Analytic.Recall <= 0 {
		t.Errorf("report's analytic recall %v, want the sharded tier's calibrated recall", rep.Analytic.Recall)
	}
	var point string
	for _, line := range strings.Split(stderr, "\n") {
		if m, ok := strings.CutPrefix(line, "analytic: "); ok {
			point = m
		}
	}
	if point == "" {
		t.Fatalf("preamble names no frontier point:\n%s", stderr)
	}
	if got := rep.Analytic.String(); got != point {
		t.Errorf("report's analytic %s, want the served frontier point %s", got, point)
	}
}

// TestServeSearchesRequestedFormation: `rago serve -chunk-prefill` serves
// the best point of a search that prices every schedule chunked, not a
// FIFO-optimal point re-priced with chunking after the search.
func TestServeSearchesRequestedFormation(t *testing.T) {
	args := []string{"-preset", "case4"}
	stdout, _ := captureOutput(t, func() {
		runServe(append(args, "-chunk-prefill", "256", "-n", "300", "-speedup", "1e7", "-json"))
	})
	var rep serve.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}

	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	wf := addWorkloadFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	schema, cluster, err := wf.load()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(cluster)
	opts.ChunkQuanta = []int{256}
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := perf.MaxQPSPerChip(o.Optimize())
	if !ok {
		t.Fatal("chunked search found no schedule")
	}
	if rep.Analytic != best.Metrics {
		t.Errorf("served analytic %s, want the chunked search's max QPS/chip point %s", rep.Analytic, best.Metrics)
	}
}

// TestServeSearchesServedShapes: on a shaped trace `rago serve` searches
// the shapes it serves. The served point is the best of a search priced
// on an even-strided 128-cap sample of the trace's shapes, the report's
// analytic reference and the auto arrival rate are that point's shaped
// metrics, and the sample prices the point within 5% of the full trace.
// Under -controller every plan tenure's analytic QPS is its library
// entry's, so the staircase the controller climbs is the shaped one.
func TestServeSearchesServedShapes(t *testing.T) {
	args := []string{"-preset", "case1", "-n", "2000", "-batch-policy", "bucketed", "-chunk-prefill", "256",
		"-prompt-len", "lognormal:512,0.8", "-out-len", "lognormal:256,0.7", "-speedup", "1e7", "-json"}

	// The served trace's shapes: drawn in request order from the shape
	// seed, whatever the arrival times.
	prompt, err := trace.LognormalLengths(512, 0.8, 8192)
	if err != nil {
		t.Fatal(err)
	}
	output, err := trace.LognormalLengths(256, 0.7, 8192)
	if err != nil {
		t.Fatal(err)
	}
	var full, sample []engine.Shape
	for i, r := range trace.WithShapes(make([]trace.Request, 2000), prompt, output, 42^0x73686170) {
		s := engine.Shape{PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
		full = append(full, s)
		if i%16 == 0 { // ceil(2000/128)
			sample = append(sample, s)
		}
	}

	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	wf := addWorkloadFlags(fs)
	if err := fs.Parse(args[:2]); err != nil {
		t.Fatal(err)
	}
	schema, cluster, err := wf.load()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(cluster)
	opts.Policies = []engine.BatchPolicy{engine.PolicyBucketed}
	opts.ChunkQuanta = []int{256}
	opts.Shapes = sample
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	front := o.Optimize()
	best, ok := perf.MaxQPSPerChip(front)
	if !ok {
		t.Fatal("shaped search found no schedule")
	}

	t.Run("static", func(t *testing.T) {
		stdout, stderr := captureOutput(t, func() { runServe(args) })
		var rep serve.Report
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
		}
		if rep.Analytic != best.Metrics {
			t.Errorf("served analytic %s, want the shaped search's max QPS/chip point %s", rep.Analytic, best.Metrics)
		}
		if want := fmt.Sprintf("Poisson arrivals at %.1f req/s", 1.5*best.Metrics.QPS); !strings.Contains(stderr, want) {
			t.Errorf("preamble does not offer 1.5x the served point's capacity (%q):\n%s", want, stderr)
		}
		plan, err := o.Compile(best.Item)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.ShapeMetrics(full).QPS; math.Abs(got-rep.Analytic.QPS) > 0.05*got {
			t.Errorf("sample prices the served point at %.3f QPS, the full trace at %.3f: over 5%% apart", rep.Analytic.QPS, got)
		}
	})

	t.Run("controller", func(t *testing.T) {
		stdout, _ := captureOutput(t, func() { runServe(append(args, "-controller")) })
		var res control.Result
		if err := json.Unmarshal([]byte(stdout), &res); err != nil {
			t.Fatalf("stdout is not a JSON controller result: %v\n%s", err, stdout)
		}
		lib, err := control.NewLibrary(o, front, control.SLO{TTFT: 1})
		if err != nil {
			t.Fatal(err)
		}
		entries := []int{res.Start}
		for _, e := range res.Events {
			entries = append(entries, e.To)
		}
		if len(res.Report.Epochs) != len(entries) {
			t.Fatalf("%d epochs for %d tenures", len(res.Report.Epochs), len(entries))
		}
		for k, ep := range res.Report.Epochs {
			e := lib.Entries[entries[k]]
			if ep.Schedule != e.Schedule || ep.AnalyticQPS != e.QPS {
				t.Errorf("epoch %d serves %s at %.4f QPS, want library entry %d: %s at %.4f QPS",
					k, ep.Schedule, ep.AnalyticQPS, entries[k], e.Schedule, e.QPS)
			}
		}
	})
}
