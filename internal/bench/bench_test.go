package bench

import (
	"strings"
	"testing"
)

// The bench package's tests run each experiment at a tiny scale to verify
// the drivers are sound; cmd/graphene-bench runs them at full scale.

func TestTable4Smoke(t *testing.T) {
	rows, err := Table4(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table4Result{}
	for _, r := range rows {
		byName[r.System] = r
	}
	// Shape: Linux startup < Graphene startup < KVM startup, by median so
	// one GC pause in six samples does not decide it.
	linux := byName["Linux"].StartupUS.Median()
	graphene := byName["Graphene"].StartupUS.Median()
	kvm := byName["KVM"].StartupUS.Median()
	if !(linux < graphene && graphene < kvm) {
		t.Errorf("startup ordering violated: linux=%.0f graphene=%.0f kvm=%.0f", linux, graphene, kvm)
	}
	// Shape: Graphene checkpoint orders of magnitude smaller than KVM's.
	gsz := byName["Graphene"].CheckpointSize
	ksz := byName["KVM"].CheckpointSize
	if gsz == 0 || ksz == 0 || gsz*10 > ksz {
		t.Errorf("checkpoint sizes: graphene=%d kvm=%d (want graphene << kvm)", gsz, ksz)
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "Graphene") || !strings.Contains(out, "Paper") {
		t.Fatalf("render: %q", out)
	}
}

func TestFig4Smoke(t *testing.T) {
	rows, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 4 workloads x 3 systems
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape: for every workload, KVM uses far more memory than Graphene,
	// and Graphene stays within a small multiple of Linux.
	byKey := map[string]uint64{}
	for _, r := range rows {
		byKey[r.Workload+"|"+r.System] = r.Bytes
	}
	for _, w := range []string{"make -j4 libLinux", "lighttpd 4-thread", "apache 4-proc", "bash unixbench"} {
		linux, graphene, kvm := byKey[w+"|Linux"], byKey[w+"|Graphene"], byKey[w+"|KVM"]
		if kvm < 3*graphene {
			t.Errorf("%s: KVM footprint %d not >> Graphene %d", w, kvm, graphene)
		}
		if linux == 0 || graphene == 0 {
			t.Errorf("%s: zero footprint (linux=%d graphene=%d)", w, linux, graphene)
		}
	}
	_ = RenderFig4(rows)
}

func TestTable6Smoke(t *testing.T) {
	// Three interleaved samples per cell, compared by median: one GC cycle
	// landing in one system's short loop must not decide an ordering.
	rows, err := Table6(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(lmbenchOps) {
		t.Fatalf("rows = %d", len(rows))
	}
	byTest := map[string]Table6Result{}
	for _, r := range rows {
		byTest[r.Test] = r
	}
	// Shape: getpid is serviced from library state on Graphene, so it is
	// cheaper than native's kernel crossing.
	if g, l := byTest["syscall"].Graphene.Median(), byTest["syscall"].Linux.Median(); !(g < l) {
		t.Errorf("library-state syscall not cheaper than native: graphene=%.0fns linux=%.0fns", g, l)
	}
	// Shape: Graphene's fork is Linux's fork plus checkpoint, bulk IPC and
	// helper start-up, so every fork cell costs more on Graphene.
	for _, op := range []string{"fork+exit", "fork+exec", "fork+sh"} {
		if g, l := byTest[op].Graphene.Median(), byTest[op].Linux.Median(); !(l < g) {
			t.Errorf("%s: graphene not dearer than native: graphene=%.0f linux=%.0f", op, g, l)
		}
	}
	_ = RenderTable6(rows)
}

func TestTable7Smoke(t *testing.T) {
	// Five samples per cell, compared by median: one sample's mean moves
	// with a single descheduled run (a 10 µs local receive was seen).
	rows, err := Table7(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(op, mode string) Table7Result {
		for _, r := range rows {
			if r.Op == op && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", op, mode)
		return Table7Result{}
	}
	// Shape: in-process lookup is much cheaper than inter-process lookup
	// on Graphene (local leader vs RPC).
	inL := get("msgget-lookup", "in process").Graphene.Median()
	interL := get("msgget-lookup", "inter process").Graphene.Median()
	if interL < inL {
		t.Errorf("inter-process lookup (%.0fns) not slower than in-process (%.0fns)", interL, inL)
	}
	// Shape: remote receive is slower than local receive.
	inR := get("msgrcv", "in process").Graphene.Median()
	interR := get("msgrcv", "inter process").Graphene.Median()
	if interR < inR {
		t.Errorf("remote recv (%.0fns) not slower than local (%.0fns)", interR, inR)
	}
	// The persistent rows exist and have no Linux column.
	if get("msgrcv", "persistent").Linux != nil {
		t.Error("persistent mode has a Linux column; kernel queues survive processes")
	}
	// The inter-process send, timed on the warmed ring, has a timing.
	if snd := get("msgsnd", "inter process"); snd.Graphene == nil || snd.Graphene.Mean() <= 0 {
		t.Error("inter-process msgsnd produced no Graphene timing")
	}
	_ = RenderTable7(rows)
}

func TestFig5Smoke(t *testing.T) {
	points, err := Fig5([]int{2, 4}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if pt.PipesUS <= 0 || pt.RPCUS <= 0 {
			t.Errorf("non-positive timing: %+v", pt)
		}
	}
	_ = RenderFig5(points)
}

func TestTable5Smoke(t *testing.T) {
	scale := Table5Scale{Iters: 1, CompileKLoC: 1, HTTPReqs: 40, ShellIters: 2}
	rows, err := Table5(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	_ = RenderTable5(rows)
}

func TestHTTPDSmoke(t *testing.T) {
	sc := HTTPDScale{Workers: 2, RateRPS: 200, DurMS: 400, Conc: 4, TimeoutMS: 1000, ChaosMS: 150}
	rows, err := HTTPD(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OK <= 0 {
			t.Errorf("%s served nothing: %+v", r.System, r)
		}
		if r.Kills == 0 {
			t.Errorf("%s saw no chaos kills", r.System)
		}
		if r.P50US <= 0 || r.P99US < r.P50US {
			t.Errorf("%s malformed latency row: %+v", r.System, r)
		}
	}
	_ = RenderHTTPD(rows)
	_ = MergeHTTPDJSON(t.TempDir()+"/httpd.json", rows)
}

func TestRenderTable8AndSecurity(t *testing.T) {
	out := RenderTable8()
	if !strings.Contains(out, "147") || !strings.Contains(out, "291") {
		t.Fatalf("table8 render: %q", out)
	}
	sec, err := RenderSecurity()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sec, "NOT BLOCKED") {
		t.Fatalf("security report shows unblocked attack:\n%s", sec)
	}
}
