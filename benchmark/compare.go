package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Verdicts of one workload × end-to-end metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within"
	verdictUnresolved = "unresolved"
)

// judge compares the rounds of set b against the rounds of set a for one
// metric. The medians decide better / worse / within the bound — unless
// the round-to-round spread of either set is wider than the bound, in
// which case the row is unresolved rather than unchanged, except when
// every round of one set beats every round of the other.
func judge(def metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved
	}
	// worse > 0 means b is worse than a by that share of a's median.
	worse := (mb - ma) / ma
	if def.Better == "higher" {
		worse = -worse
	}
	if iqrFrac(a) > def.Bound || iqrFrac(b) > def.Bound {
		lo, hi := a, b // want: every lo below every hi
		if slices.Max(lo) >= slices.Min(hi) {
			lo, hi = b, a
		}
		if slices.Max(lo) >= slices.Min(hi) {
			return verdictUnresolved
		}
	}
	switch {
	case worse > def.Bound:
		return verdictWorse
	case worse < -def.Bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}

func loadResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*result
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	timed := map[string]*result{}
	for _, r := range all {
		if !r.Traced {
			timed[r.Workload] = r
		}
	}
	return timed, nil
}

// compareFiles prints one row per workload × end-to-end metric of two
// saved sets of runs (-out files): both medians with their quartiles over
// the rounds, the bound, and the verdict for the second set against the
// first. It fails when any row is worse.
func compareFiles(pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %14s %-25s %14s %-25s %6s  %s\n",
		"workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "bound", "verdict")
	worse := 0
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range endToEnd {
			va, vb := ra.PerRound[def.Name], rb.PerRound[def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(def, va, vb)
			if verdict == verdictWorse {
				worse++
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Printf("%-12s %-12s %14.4f %-25s %14.4f %-25s %6.2f  %s\n",
				w.name, def.Name, median(va), fmt.Sprintf("[%.4f, %.4f]", a1, a3),
				median(vb), fmt.Sprintf("[%.4f, %.4f]", b1, b3), def.Bound, verdict)
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Printf("%-12s %-12s A: %d of %d failed, B: %d of %d failed\n",
				w.name, "failures", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than their bound allows", worse)
	}
	return nil
}
