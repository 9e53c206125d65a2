package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rago/internal/core"
	"rago/internal/perf"
	"rago/internal/serve"
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
