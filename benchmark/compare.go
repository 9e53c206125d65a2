package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// modeled reports whether a metric is a modeled quantity — deterministic,
// so two runs of one seed must agree bit for bit. The name says so: plan_*,
// model_* and recall_* (after any "module." prefix).
func modeled(name string) bool {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return strings.HasPrefix(name, "plan_") || strings.HasPrefix(name, "model_") || strings.HasPrefix(name, "recall_")
}

// quartiles returns the cut points of Python's
// statistics.quantiles(values, n=4): the exclusive method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func readSet(list string) ([]outFile, error) {
	var set []outFile
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f outFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, f)
	}
	return set, nil
}

type cell struct{ workload, metric string }

func collect(set []outFile) map[cell][]float64 {
	out := map[cell][]float64{}
	for _, f := range set {
		for name, v := range f.Metrics {
			c := cell{f.Workload, name}
			out[c] = append(out[c], v.Value)
		}
	}
	return out
}

// compareFiles applies each end-to-end metric's bound per (metric, workload)
// to two sets of -out files — a is the baseline, b the candidate — and
// prints one row per pair: ok, worse (b's median is worse than a's by more
// than the bound), unresolved (a set's spread is wider than the bound) or
// exact-mismatch (a modeled metric differs between runs of one seed).
// Per-layer metrics have no bound; they are only checked for exact
// mismatches. It reports whether any row is worse or mismatched.
func compareFiles(man *manifest, aList, bList string, out io.Writer) (bool, error) {
	a, err := readSet(aList)
	if err != nil {
		return false, err
	}
	b, err := readSet(bList)
	if err != nil {
		return false, err
	}
	decl := map[string]metricDecl{}
	for _, d := range man.EndToEnd {
		decl[d.Name] = d
	}
	for _, d := range man.PerLayer {
		decl[d.Name] = d
	}

	// Exact mismatches: modeled metrics of runs sharing (workload, seed,
	// seconds, trace).
	mismatch := map[cell]bool{}
	for _, fa := range a {
		for _, fb := range b {
			if fa.Workload != fb.Workload || fa.Seed != fb.Seed || fa.Seconds != fb.Seconds || fa.Trace != fb.Trace {
				continue
			}
			for name, va := range fa.Metrics {
				if vb, ok := fb.Metrics[name]; ok && modeled(name) && va.Value != vb.Value {
					mismatch[cell{fa.Workload, name}] = true
				}
			}
		}
	}

	av, bv := collect(a), collect(b)
	var cells []cell
	for c := range av {
		if _, ok := bv[c]; ok {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].workload != cells[j].workload {
			return cells[i].workload < cells[j].workload
		}
		return cells[i].metric < cells[j].metric
	})
	bad := false
	fmt.Fprintf(out, "%-20s %-28s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	for _, c := range cells {
		d := decl[c.metric]
		ma, mb := median(av[c]), median(bv[c])
		sa, sb := spread(av[c]), spread(bv[c])
		// change > 0 means b is worse than a.
		change := 0.0
		if ma != 0 {
			change = (mb - ma) / ma
			if d.Better == "higher" {
				change = -change
			}
		}
		verdict := "ok"
		switch {
		case mismatch[c]:
			verdict, bad = "exact-mismatch", true
		case d.Bound == 0:
			verdict = "-"
		case change > d.Bound:
			verdict, bad = "worse", true
		case sa > d.Bound || sb > d.Bound:
			verdict = "unresolved"
		}
		fmt.Fprintf(out, "%-20s %-28s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.1f%%  %s\n",
			c.workload, c.metric, ma, mb, 100*change, 100*sa, 100*sb, 100*d.Bound, verdict)
	}
	return bad, nil
}
