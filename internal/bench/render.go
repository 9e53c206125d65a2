package bench

import (
	"fmt"
	"strings"
)

// RenderSeries prints labeled curves as aligned columns of (x, y) pairs.
func RenderSeries(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, s := range series {
		fmt.Fprintf(&b, "-- %s (%s vs %s)\n", s.Name, s.XLabel, s.YLabel)
		for i := range s.X {
			fmt.Fprintf(&b, "   %12.5f  %12.4f\n", s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// RenderFrontierSummary prints only the extremes of each curve — the
// numbers the paper quotes in prose.
func RenderFrontierSummary(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, s := range series {
		if len(s.X) == 0 {
			fmt.Fprintf(&b, "%-24s (empty)\n", s.Name)
			continue
		}
		minX, maxY := s.X[0], s.Y[0]
		for i := range s.X {
			if s.X[i] < minX {
				minX = s.X[i]
			}
			if s.Y[i] > maxY {
				maxY = s.Y[i]
			}
		}
		fmt.Fprintf(&b, "%-24s points=%-3d min %s=%.4f  max %s=%.4f\n",
			s.Name, len(s.X), s.XLabel, minX, s.YLabel, maxY)
	}
	return b.String()
}

// RenderHeatmap prints cells as a row-major table.
func RenderHeatmap(title string, cells []Cell) string {
	rows, cols := orderedKeys(cells)
	byKey := make(map[[2]string]float64, len(cells))
	for _, c := range cells {
		byKey[[2]string{c.Row, c.Col}] = c.Value
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n%-14s", title, "")
	for _, c := range cols {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r)
		for _, c := range cols {
			if v, ok := byKey[[2]string{r, c}]; ok {
				fmt.Fprintf(&b, "%12.2f", v)
			} else {
				fmt.Fprintf(&b, "%12s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// orderedKeys returns row and column labels in first-appearance order.
func orderedKeys(cells []Cell) (rows, cols []string) {
	seenR := map[string]bool{}
	seenC := map[string]bool{}
	for _, c := range cells {
		if !seenR[c.Row] {
			seenR[c.Row] = true
			rows = append(rows, c.Row)
		}
		if !seenC[c.Col] {
			seenC[c.Col] = true
			cols = append(cols, c.Col)
		}
	}
	return rows, cols
}

// RenderBreakdowns prints stage-share tables (shares in percent).
func RenderBreakdowns(title string, bds []Breakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, bd := range bds {
		fmt.Fprintf(&b, "-- %s\n", bd.Label)
		for i, st := range bd.Stages {
			fmt.Fprintf(&b, "   %-16s %6.1f%%\n", st, bd.Shares[i])
		}
	}
	return b.String()
}

// RenderTable4 prints the Table 4 comparison.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("== Table 4: RAGO vs baseline schedules (Case II) ==\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s TTFT=%8.4fs  QPS/chip=%7.3f  %s\n", r.Name, r.TTFT, r.QPSPerChip, r.Desc)
	}
	return b.String()
}

// RenderPlanSummaries prints per-plan frontier extremes.
func RenderPlanSummaries(title string, sums []PlanSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, s := range sums {
		fmt.Fprintf(&b, "maxQPS/chip=%7.3f  minTTFT=%8.4fs  points=%-3d  %s\n",
			s.MaxQPSChip, s.MinTTFT, s.Points, s.Desc)
	}
	return b.String()
}
