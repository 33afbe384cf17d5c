package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareFiles prints, per workload and end-to-end metric, both medians
// with quartiles and sample counts, the ratio with its base, the bound
// and a verdict; then every exact metric that differs. It reports whether
// anything is worse (or an exact metric differs), which is what the
// caller turns into a non-zero exit.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s  commit %s  %s  seed %d  cal %.1f ms\n", pathA, a.Host.Commit, a.Host.Date, a.Seed, a.Host.CalMS)
	fmt.Fprintf(w, "B = %s  commit %s  %s  seed %d  cal %.1f ms\n", pathB, b.Host.Commit, b.Host.Date, b.Seed, b.Host.CalMS)
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: seeds or run lengths differ (%d/%d s, %d/%d s): exact metrics are not expected to agree\n",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	fmt.Fprintf(w, "\n%-14s %-12s %-34s %-34s %-26s %-6s %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B/A (base A)", "bound", "verdict")
	for _, def := range workloads {
		ra, rb := a.find(def.name, false), b.find(def.name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-14s missing from one of the files\n", def.name)
			worse = true
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: A %d of %d, B %d of %d\n", def.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			worse = worse || rb.Failed > ra.Failed
		}
		for _, m := range endToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			v := verdict(m, sa, sb)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-14s %-12s %-40s %-40s %-26s %-6.2f %s\n", def.name, m.Name, cell(sa), cell(sb),
				fmt.Sprintf("%.4f (%.6g %s)", sb.Value/sa.Value, sa.Value, sa.Unit), m.Bound, v)
		}
	}

	// Exact metrics compare bit for bit; only differences are listed.
	differing := 0
	for _, def := range workloads {
		ra, rb := a.find(def.name, true), b.find(def.name, true)
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range perLayer {
			if va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value; m.Exact && va != vb {
				fmt.Fprintf(w, "%-14s %-32s exact metric differs: A %v, B %v\n", def.name, m.Name, va, vb)
				differing++
			}
		}
	}
	if differing == 0 {
		fmt.Fprintln(w, "\nexact metrics: identical")
	} else if a.Seed == b.Seed {
		worse = true
	}
	return worse, nil
}

func cell(s summary) string {
	return fmt.Sprintf("%.5g ±%.2g [%.5g, %.5g] %d", s.Value, s.uncertainty(), s.Q1, s.Q3, s.N)
}

// verdict judges B against A for one metric. The medians decide between
// same, better and worse by the metric's bound. But a median is only
// known to within its own uncertainty, which on a noisy host can exceed
// the bound; when it does for either side and the two sides' intervals
// overlap, the data cannot carry any of the three and the verdict is
// unresolved.
func verdict(m metricDef, a, b summary) string {
	if a.Value == 0 {
		return verdictUnresolved
	}
	change := (b.Value - a.Value) / math.Abs(a.Value) // positive: B reads higher
	if m.Better == "higher" {
		change = -change
	}
	ua, ub := a.uncertainty(), b.uncertainty()
	wide := math.Max(ua/math.Abs(a.Value), ub/math.Abs(b.Value)) > m.Bound
	overlap := a.Value+ua >= b.Value-ub && b.Value+ub >= a.Value-ua
	switch {
	case wide && overlap:
		return verdictUnresolved
	case change > m.Bound:
		return verdictWorse
	case change < -m.Bound:
		return verdictBetter
	}
	return verdictSame
}
