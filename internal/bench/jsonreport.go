package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"graphene/internal/metrics"
)

// This file provides machine-readable projections of the benchmark
// results, so runs can be archived and diffed (cmd/graphene-bench -json
// writes one BENCH_<experiment>.json per table).

// SampleStats is the JSON projection of a metrics.Sample. Units follow
// the table the sample came from (ns/op, us, seconds, or MB/s).
type SampleStats struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Stddev float64 `json:"stddev"`
}

func sampleStats(s *metrics.Sample) *SampleStats {
	if s == nil || s.N() == 0 {
		return nil
	}
	return &SampleStats{N: s.N(), Mean: s.Mean(), Median: s.Median(), Stddev: s.Stddev()}
}

// WriteJSON writes v to path as indented JSON.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type table4JSON struct {
	System         string       `json:"system"`
	StartupUS      *SampleStats `json:"startup_us,omitempty"`
	CheckpointUS   *SampleStats `json:"checkpoint_us,omitempty"`
	ResumeUS       *SampleStats `json:"resume_us,omitempty"`
	CheckpointSize uint64       `json:"checkpoint_size_bytes,omitempty"`
}

// Table4JSON projects Table 4 rows for WriteJSON.
func Table4JSON(rows []Table4Result) any {
	out := make([]table4JSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, table4JSON{
			System:         r.System,
			StartupUS:      sampleStats(r.StartupUS),
			CheckpointUS:   sampleStats(r.CheckpointUS),
			ResumeUS:       sampleStats(r.ResumeUS),
			CheckpointSize: r.CheckpointSize,
		})
	}
	return out
}

type fig4JSON struct {
	Workload string `json:"workload"`
	System   string `json:"system"`
	Bytes    uint64 `json:"bytes"`
}

// Fig4JSON projects Figure 4 rows for WriteJSON.
func Fig4JSON(rows []Fig4Result) any {
	out := make([]fig4JSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, fig4JSON{Workload: r.Workload, System: r.System, Bytes: r.Bytes})
	}
	return out
}

type table5JSON struct {
	Workload   string       `json:"workload"`
	Throughput bool         `json:"throughput"`
	Linux      *SampleStats `json:"linux,omitempty"`
	KVM        *SampleStats `json:"kvm,omitempty"`
	Graphene   *SampleStats `json:"graphene,omitempty"`
	GrapheneNR *SampleStats `json:"graphene_no_monitor,omitempty"`
}

// Table5JSON projects Table 5 rows for WriteJSON.
func Table5JSON(rows []Table5Result) any {
	out := make([]table5JSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, table5JSON{
			Workload:   r.Workload,
			Throughput: r.Throughput,
			Linux:      sampleStats(r.Linux),
			KVM:        sampleStats(r.KVM),
			Graphene:   sampleStats(r.Graphene),
			GrapheneNR: sampleStats(r.GrapheneNR),
		})
	}
	return out
}

type table6JSON struct {
	Test       string       `json:"test"`
	Linux      *SampleStats `json:"linux_ns,omitempty"`
	Graphene   *SampleStats `json:"graphene_ns,omitempty"`
	GrapheneRM *SampleStats `json:"graphene_monitor_ns,omitempty"`
}

// Table6JSON projects Table 6 rows for WriteJSON.
func Table6JSON(rows []Table6Result) any {
	out := make([]table6JSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, table6JSON{
			Test:       r.Test,
			Linux:      sampleStats(r.Linux),
			Graphene:   sampleStats(r.Graphene),
			GrapheneRM: sampleStats(r.GrapheneRM),
		})
	}
	return out
}

type table7JSON struct {
	Op       string       `json:"op"`
	Mode     string       `json:"mode"`
	Linux    *SampleStats `json:"linux_ns,omitempty"`
	Graphene *SampleStats `json:"graphene_ns,omitempty"`
}

// Table7JSON projects Table 7 rows for WriteJSON.
func Table7JSON(rows []Table7Result) any {
	out := make([]table7JSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, table7JSON{
			Op:       r.Op,
			Mode:     r.Mode,
			Linux:    sampleStats(r.Linux),
			Graphene: sampleStats(r.Graphene),
		})
	}
	return out
}

type fig5JSON struct {
	Processes int     `json:"processes"`
	PipesUS   float64 `json:"linux_pipes_us,omitempty"`
	RPCUS     float64 `json:"graphene_rpc_us"`
}

// Fig5JSON projects Figure 5 points for WriteJSON.
func Fig5JSON(points []Fig5Point) any {
	out := make([]fig5JSON, 0, len(points))
	for _, p := range points {
		out = append(out, fig5JSON{Processes: p.Processes, PipesUS: p.PipesUS, RPCUS: p.RPCUS})
	}
	return out
}

// mergeRows is the shared merge-by-coordinate engine behind every
// Merge*JSON projection: a row archived at path whose key matches a fresh
// row is overwritten by the new measurement, every other archived row is
// preserved, and fresh rows with no archived counterpart append in run
// order. A partial sweep therefore refreshes only what it ran instead of
// clobbering the whole file; a missing or unreadable archive degrades to
// just the new rows. fix, if non-nil, normalizes archived rows before
// matching (schema back-compat, e.g. the fleet's pre-sweep rows).
func mergeRows[T any](path string, fresh []T, key func(T) string, fix func([]T)) []T {
	merged := []T{}
	if data, err := os.ReadFile(path); err == nil {
		var old []T
		if json.Unmarshal(data, &old) == nil {
			merged = old
		}
	}
	if fix != nil {
		fix(merged)
	}
	for _, nr := range fresh {
		replaced := false
		for i := range merged {
			if key(merged[i]) == key(nr) {
				merged[i] = nr
				replaced = true
				break
			}
		}
		if !replaced {
			merged = append(merged, nr)
		}
	}
	return merged
}

// MergeTable4JSON merges fresh Table 4 rows into the archive at path,
// keyed by system.
func MergeTable4JSON(path string, rows []Table4Result) any {
	return mergeRows(path, Table4JSON(rows).([]table4JSON),
		func(r table4JSON) string { return r.System }, nil)
}

// MergeFig4JSON merges fresh Figure 4 rows into the archive at path,
// keyed by (workload, system).
func MergeFig4JSON(path string, rows []Fig4Result) any {
	return mergeRows(path, Fig4JSON(rows).([]fig4JSON),
		func(r fig4JSON) string { return r.Workload + "|" + r.System }, nil)
}

// MergeTable5JSON merges fresh Table 5 rows into the archive at path,
// keyed by workload.
func MergeTable5JSON(path string, rows []Table5Result) any {
	return mergeRows(path, Table5JSON(rows).([]table5JSON),
		func(r table5JSON) string { return r.Workload }, nil)
}

// MergeTable6JSON merges fresh Table 6 rows into the archive at path,
// keyed by test name.
func MergeTable6JSON(path string, rows []Table6Result) any {
	return mergeRows(path, Table6JSON(rows).([]table6JSON),
		func(r table6JSON) string { return r.Test }, nil)
}

// MergeTable7JSON merges fresh Table 7 rows into the archive at path,
// keyed by (op, mode) — so an archive written before the kernel-bypass
// datapath existed gains the "inter process (ring)" rows without losing
// its other cells.
func MergeTable7JSON(path string, rows []Table7Result) any {
	return mergeRows(path, Table7JSON(rows).([]table7JSON),
		func(r table7JSON) string { return r.Op + "|" + r.Mode }, nil)
}

type httpdJSON struct {
	System     string  `json:"system"`
	Scenario   string  `json:"scenario"`
	Workers    int     `json:"workers"`
	RateRPS    int     `json:"rate_rps"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed"`
	Errs       int64   `json:"errs"`
	Kills      int     `json:"kills"`
	Crashes    int     `json:"crashes"`
	P50US      int64   `json:"p50_us"`
	P99US      int64   `json:"p99_us"`
	P999US     int64   `json:"p999_us"`
	ShedRate   float64 `json:"shed_rate"`
	FailoverMS int64   `json:"failover_ms,omitempty"`
}

// HTTPDJSON projects fleet serving-continuity rows for WriteJSON.
func HTTPDJSON(rows []HTTPDResult) any {
	out := make([]httpdJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, httpdJSON{
			System: r.System, Scenario: r.Scenario,
			Workers: r.Workers, RateRPS: r.RateRPS,
			OK: r.OK, Shed: r.Shed, Errs: r.Errs,
			Kills: r.Kills, Crashes: r.Crashes,
			P50US: r.P50US, P99US: r.P99US, P999US: r.P999US,
			ShedRate: r.ShedRate, FailoverMS: r.FailoverMS,
		})
	}
	return out
}

// MergeHTTPDJSON merges fresh fleet rows into the archive at path, keyed
// by (system, scenario, workers, rate) — the scale sweep adds coordinates
// without clobbering the chaos rows, and a partial sweep refreshes only
// the cells it measured. Rows archived before the elastic sweep carry no
// scenario or coordinate; they normalize to the chaos run at its original
// sizing (4 workers, 400 rps) before matching. The merged table sorts on
// (scenario, workers, rate, system) for stable diffs.
func MergeHTTPDJSON(path string, rows []HTTPDResult) any {
	merged := mergeRows(path, HTTPDJSON(rows).([]httpdJSON),
		func(r httpdJSON) string {
			return fmt.Sprintf("%s|%s|%d|%d", r.System, r.Scenario, r.Workers, r.RateRPS)
		},
		func(old []httpdJSON) {
			for i := range old {
				if old[i].Scenario == "" {
					old[i].Scenario = "chaos"
				}
				if old[i].Workers == 0 {
					old[i].Workers = 4
				}
				if old[i].RateRPS == 0 {
					old[i].RateRPS = 400
				}
			}
		})
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Workers != b.Workers {
			return a.Workers < b.Workers
		}
		if a.RateRPS != b.RateRPS {
			return a.RateRPS < b.RateRPS
		}
		return a.System < b.System
	})
	return merged
}

// MergeFig5JSON merges freshly measured Figure 5 points into the series
// already archived at path, keyed by process count and sorted on it (the
// ping-pong series and the population sweep use disjoint counts).
func MergeFig5JSON(path string, points []Fig5Point) any {
	merged := mergeRows(path, Fig5JSON(points).([]fig5JSON),
		func(p fig5JSON) string { return fmt.Sprint(p.Processes) }, nil)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Processes < merged[j].Processes })
	return merged
}
