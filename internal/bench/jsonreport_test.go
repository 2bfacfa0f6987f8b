package bench

import (
	"fmt"
	"path/filepath"
	"testing"

	"graphene/internal/metrics"
)

func sampleOf(vs ...float64) *metrics.Sample {
	s := &metrics.Sample{}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// TestMergeTable7JSON exercises the coordinate merge on the table with the
// richest key (op, mode): a re-measured cell replaces its archived twin, a
// row the archive lacks appends, and untouched archive rows survive.
func TestMergeTable7JSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_table7.json")

	first := []Table7Result{
		{Op: "msgsnd", Mode: "in process", Graphene: sampleOf(400)},
		{Op: "msgsnd", Mode: "inter process", Graphene: sampleOf(1000)},
	}
	if err := WriteJSON(path, MergeTable7JSON(path, first)); err != nil {
		t.Fatal(err)
	}

	second := []Table7Result{
		{Op: "msgsnd", Mode: "inter process", Graphene: sampleOf(1100)},
		{Op: "msgrcv", Mode: "inter process", Graphene: sampleOf(600)},
	}
	merged, ok := MergeTable7JSON(path, second).([]table7JSON)
	if !ok {
		t.Fatalf("MergeTable7JSON returned %T", MergeTable7JSON(path, second))
	}
	if len(merged) != 3 {
		t.Fatalf("merged rows = %d, want 3: %+v", len(merged), merged)
	}
	byKey := map[string]table7JSON{}
	for _, r := range merged {
		byKey[r.Op+"|"+r.Mode] = r
	}
	if r := byKey["msgsnd|in process"]; r.Graphene == nil || r.Graphene.Mean != 400 {
		t.Errorf("untouched archive row lost or altered: %+v", r)
	}
	if r := byKey["msgsnd|inter process"]; r.Graphene == nil || r.Graphene.Mean != 1100 {
		t.Errorf("re-measured row not replaced: %+v", r)
	}
	if r, found := byKey["msgrcv|inter process"]; !found || r.Graphene.Mean != 600 {
		t.Errorf("new row not appended: %+v", r)
	}
}

func TestMergeTable6JSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_table6.json")
	first := []Table6Result{
		{Test: "syscall", Linux: sampleOf(40), Graphene: sampleOf(10), GrapheneRM: sampleOf(12)},
		{Test: "read", Linux: sampleOf(90), Graphene: sampleOf(120), GrapheneRM: sampleOf(130)},
	}
	if err := WriteJSON(path, MergeTable6JSON(path, first)); err != nil {
		t.Fatal(err)
	}
	second := []Table6Result{
		{Test: "read", Linux: sampleOf(91), Graphene: sampleOf(121), GrapheneRM: sampleOf(131)},
	}
	merged := MergeTable6JSON(path, second).([]table6JSON)
	if len(merged) != 2 {
		t.Fatalf("merged rows = %d, want 2", len(merged))
	}
	for _, r := range merged {
		switch r.Test {
		case "syscall":
			if r.Graphene.Mean != 10 {
				t.Errorf("syscall row altered: %+v", r)
			}
		case "read":
			if r.Graphene.Mean != 121 {
				t.Errorf("read row not refreshed: %+v", r)
			}
		default:
			t.Errorf("unexpected row %q", r.Test)
		}
	}
}

// TestMergeJSONMissingArchive checks the degradation path: no archive (or
// an unreadable one) merges to exactly the fresh rows.
func TestMergeJSONMissingArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.json")
	rows := []Table4Result{{System: "Graphene", StartupUS: sampleOf(641)}}
	merged := MergeTable4JSON(path, rows).([]table4JSON)
	if len(merged) != 1 || merged[0].System != "Graphene" {
		t.Fatalf("merged = %+v", merged)
	}
}

// TestMergeFig5JSONByProcessCount pins the archive's coordinate: a fresh
// point replaces the archived one at its process count instead of
// duplicating it, other archived points stay, and the merged series sorts
// by process count.
func TestMergeFig5JSONByProcessCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fig5.json")
	if err := WriteJSON(path, []map[string]any{
		{"processes": 64, "graphene_rpc_us": 13000.0},
		{"processes": 4, "linux_pipes_us": 10.0, "graphene_rpc_us": 20.0},
	}); err != nil {
		t.Fatal(err)
	}
	merged := MergeFig5JSON(path, []Fig5Point{
		{Processes: 4, PipesUS: 11, RPCUS: 19},
		{Processes: 2, PipesUS: 5, RPCUS: 9},
	}).([]fig5JSON)
	if len(merged) != 3 {
		t.Fatalf("merged points = %d, want 3 (the archived 4-process point must be replaced, not duplicated): %+v", len(merged), merged)
	}
	if merged[0].Processes != 2 || merged[1].Processes != 4 || merged[2].Processes != 64 {
		t.Fatalf("not sorted: %+v", merged)
	}
	if merged[1].RPCUS != 19 {
		t.Errorf("archived point not replaced: %+v", merged[1])
	}
}

// TestMergeHTTPDJSONByCoordinate pins the fleet table's coordinate merge:
// an archive written before the elastic sweep (system-keyed rows with no
// scenario/workers/rate) normalizes to the chaos run at its original
// sizing and is replaced by a re-measured chaos row, while scale-sweep
// and failover rows land as new coordinates without disturbing anything.
func TestMergeHTTPDJSONByCoordinate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_httpd.json")
	// Legacy archive: pre-sweep schema, keyed by system only.
	if err := WriteJSON(path, []map[string]any{
		{"system": "Graphene", "ok": 104, "p99_us": 442},
		{"system": "Linux", "ok": 104, "p99_us": 475},
	}); err != nil {
		t.Fatal(err)
	}
	fresh := []HTTPDResult{
		{System: "Graphene", Scenario: "chaos", Workers: 4, RateRPS: 400, OK: 200, P99US: 300},
		{System: "Graphene", Scenario: "scale", Workers: 64, RateRPS: 4000, OK: 5000, P99US: 90_000, ShedRate: 0.01},
		{System: "Graphene", Scenario: "failover", Workers: 4, RateRPS: 800, OK: 900, FailoverMS: 120},
	}
	merged := MergeHTTPDJSON(path, fresh).([]httpdJSON)
	if len(merged) != 4 {
		t.Fatalf("merged rows = %d, want 4 (legacy Graphene replaced, legacy Linux kept, 2 new coordinates): %+v", len(merged), merged)
	}
	byKey := map[string]httpdJSON{}
	for _, r := range merged {
		byKey[fmt.Sprintf("%s|%s|%d|%d", r.System, r.Scenario, r.Workers, r.RateRPS)] = r
	}
	if r := byKey["Graphene|chaos|4|400"]; r.OK != 200 {
		t.Errorf("legacy chaos row not replaced by re-measurement: %+v", r)
	}
	if r := byKey["Linux|chaos|4|400"]; r.OK != 104 {
		t.Errorf("untouched legacy row lost or altered: %+v", r)
	}
	if r := byKey["Graphene|scale|64|4000"]; r.P99US != 90_000 || r.ShedRate != 0.01 {
		t.Errorf("scale coordinate not appended: %+v", r)
	}
	if r := byKey["Graphene|failover|4|800"]; r.FailoverMS != 120 {
		t.Errorf("failover coordinate not appended: %+v", r)
	}
	// Stable order: scenario, then workers, then rate, then system.
	if merged[0].Scenario != "chaos" || merged[len(merged)-1].Scenario != "scale" {
		t.Errorf("not sorted by coordinate: %+v", merged)
	}
}
