package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
)

// fakeOS implements api.OS and every optional surface; each method only
// notes that it was reached.
type fakeOS struct{ last string }

func (f *fakeOS) Getpid() int                         { f.last = "Getpid"; return 0 }
func (f *fakeOS) Getppid() int                        { f.last = "Getppid"; return 0 }
func (f *fakeOS) Fork(func(api.OS)) (int, error)      { f.last = "Fork"; return 0, nil }
func (f *fakeOS) Exec(string, []string) error         { f.last = "Exec"; return nil }
func (f *fakeOS) Spawn(string, []string) (int, error) { f.last = "Spawn"; return 0, nil }
func (f *fakeOS) Wait(int) (api.WaitResult, error)    { f.last = "Wait"; return api.WaitResult{}, nil }
func (f *fakeOS) Exit(int)                            { f.last = "Exit" }
func (f *fakeOS) Kill(int, api.Signal) error          { f.last = "Kill"; return nil }
func (f *fakeOS) Sigaction(api.Signal, api.SigHandler, string) error {
	f.last = "Sigaction"
	return nil
}
func (f *fakeOS) SignalsDrain()                               { f.last = "SignalsDrain" }
func (f *fakeOS) Open(string, int, api.FileMode) (int, error) { f.last = "Open"; return 0, nil }
func (f *fakeOS) Close(int) error                             { f.last = "Close"; return nil }
func (f *fakeOS) Read(int, []byte) (int, error)               { f.last = "Read"; return 0, nil }
func (f *fakeOS) Write(int, []byte) (int, error)              { f.last = "Write"; return 0, nil }
func (f *fakeOS) Lseek(int, int64, int) (int64, error)        { f.last = "Lseek"; return 0, nil }
func (f *fakeOS) Stat(string) (api.Stat, error)               { f.last = "Stat"; return api.Stat{}, nil }
func (f *fakeOS) Fstat(int) (api.Stat, error)                 { f.last = "Fstat"; return api.Stat{}, nil }
func (f *fakeOS) Unlink(string) error                         { f.last = "Unlink"; return nil }
func (f *fakeOS) Mkdir(string, api.FileMode) error            { f.last = "Mkdir"; return nil }
func (f *fakeOS) ReadDir(string) ([]api.DirEnt, error)        { f.last = "ReadDir"; return nil, nil }
func (f *fakeOS) Rename(string, string) error                 { f.last = "Rename"; return nil }
func (f *fakeOS) Chdir(string) error                          { f.last = "Chdir"; return nil }
func (f *fakeOS) Getcwd() (string, error)                     { f.last = "Getcwd"; return "", nil }
func (f *fakeOS) Dup2(int, int) (int, error)                  { f.last = "Dup2"; return 0, nil }
func (f *fakeOS) Pipe() (int, int, error)                     { f.last = "Pipe"; return 0, 0, nil }
func (f *fakeOS) Brk(uint64) (uint64, error)                  { f.last = "Brk"; return 0, nil }
func (f *fakeOS) Mmap(uint64, uint64, int) (uint64, error)    { f.last = "Mmap"; return 0, nil }
func (f *fakeOS) Munmap(uint64, uint64) error                 { f.last = "Munmap"; return nil }
func (f *fakeOS) MemWrite(uint64, []byte) error               { f.last = "MemWrite"; return nil }
func (f *fakeOS) MemRead(uint64, []byte) error                { f.last = "MemRead"; return nil }
func (f *fakeOS) Msgget(int, int) (int, error)                { f.last = "Msgget"; return 0, nil }
func (f *fakeOS) Msgsnd(int, int64, []byte, int) error        { f.last = "Msgsnd"; return nil }
func (f *fakeOS) Msgrcv(int, int64, []byte, int) (int64, []byte, error) {
	f.last = "Msgrcv"
	return 0, nil, nil
}
func (f *fakeOS) MsgctlRmid(int) error               { f.last = "MsgctlRmid"; return nil }
func (f *fakeOS) Semget(int, int, int) (int, error)  { f.last = "Semget"; return 0, nil }
func (f *fakeOS) Semop(int, []api.SemBuf) error      { f.last = "Semop"; return nil }
func (f *fakeOS) SemctlRmid(int) error               { f.last = "SemctlRmid"; return nil }
func (f *fakeOS) Listen(api.SockAddr) (int, error)   { f.last = "Listen"; return 0, nil }
func (f *fakeOS) Accept(int) (int, error)            { f.last = "Accept"; return 0, nil }
func (f *fakeOS) Connect(api.SockAddr) (int, error)  { f.last = "Connect"; return 0, nil }
func (f *fakeOS) Gettimeofday() (int64, error)       { f.last = "Gettimeofday"; return 0, nil }
func (f *fakeOS) GetRandom([]byte) (int, error)      { f.last = "GetRandom"; return 0, nil }
func (f *fakeOS) Getenv(string) string               { f.last = "Getenv"; return "" }
func (f *fakeOS) Setenv(string, string)              { f.last = "Setenv" }
func (f *fakeOS) ProcSelfRoot() string               { f.last = "ProcSelfRoot"; return "" }
func (f *fakeOS) Poll([]int, int64) (int, error)     { f.last = "Poll"; return 0, nil }
func (f *fakeOS) SpawnThread(func()) error           { f.last = "SpawnThread"; return nil }
func (f *fakeOS) PassConnection(int, int) error      { f.last = "PassConnection"; return nil }
func (f *fakeOS) ReceiveConnection(int) (int, error) { f.last = "ReceiveConnection"; return 0, nil }
func (f *fakeOS) FaultPoint(string) int              { f.last = "FaultPoint"; return 0 }
func (f *fakeOS) ElectEpoch() (int64, error)         { f.last = "ElectEpoch"; return 0, nil }
func (f *fakeOS) SandboxCreate([]string) error       { f.last = "SandboxCreate"; return nil }

// TestDecoratorForwardsEverything walks api.OS and the optional surfaces
// by reflection, so a method added to any of them is exercised (and fails
// here, or at compile time, until tracedOS forwards it).
func TestDecoratorForwardsEverything(t *testing.T) {
	surfaces := []reflect.Type{
		reflect.TypeOf((*api.OS)(nil)).Elem(),
		reflect.TypeOf((*api.Poller)(nil)).Elem(),
		reflect.TypeOf((*api.Threader)(nil)).Elem(),
		reflect.TypeOf((*api.ConnPasser)(nil)).Elem(),
		reflect.TypeOf((*api.FaultPointer)(nil)).Elem(),
		reflect.TypeOf((*api.Elector)(nil)).Elem(),
		reflect.TypeOf((*api.SandboxCreator)(nil)).Elem(),
	}
	for _, iface := range surfaces {
		if !reflect.TypeOf(&tracedOS{}).Implements(iface) {
			t.Fatalf("tracedOS does not implement %v", iface)
		}
		for i := 0; i < iface.NumMethod(); i++ {
			name := iface.Method(i).Name
			inner := &fakeOS{}
			tr := newTracer()
			m := reflect.ValueOf(newTracedOS(tr, inner)).MethodByName(name)
			args := make([]reflect.Value, m.Type().NumIn())
			for a := range args {
				args[a] = reflect.Zero(m.Type().In(a))
			}
			m.Call(args)
			if inner.last != name {
				t.Errorf("%s: reached inner method %q", name, inner.last)
			}
			spans := tr.snapshot()
			if len(spans) != 1 || spans[0].Name != name || spans[0].Layer != layerLiblinux {
				t.Errorf("%s: recorded spans %+v", name, spans)
			}
		}
	}
}

// A personality without an optional surface must read as not supporting
// it, not panic.
func TestDecoratorWithoutOptionalSurfaces(t *testing.T) {
	type bare struct{ api.OS }
	o := newTracedOS(newTracer(), bare{&fakeOS{}})
	if _, err := o.Poll(nil, 0); err != api.ENOSYS {
		t.Errorf("Poll: %v", err)
	}
	if err := o.SpawnThread(nil); err != api.ENOSYS {
		t.Errorf("SpawnThread: %v", err)
	}
	if err := o.PassConnection(0, 0); err != api.ENOSYS {
		t.Errorf("PassConnection: %v", err)
	}
	if err := o.SandboxCreate(nil); err != api.ENOSYS {
		t.Errorf("SandboxCreate: %v", err)
	}
	if o.FaultPoint("x") != 0 {
		t.Errorf("FaultPoint fired")
	}
}

func TestPolicyDecoratorForwards(t *testing.T) {
	tr := newTracer()
	p := tracedPolicy{inner: host.OpenPolicy(), t: tr}
	proc := &host.Picoprocess{ID: 7}
	if got, err := p.TranslatePath(proc, "/a/../b"); err != nil || got != "/b" {
		t.Errorf("TranslatePath = %q, %v", got, err)
	}
	if err := p.CheckOpen(proc, "/b", true); err != nil {
		t.Error(err)
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Layer != layerMonitor || spans[0].PID != 7 {
		t.Errorf("spans %+v", spans)
	}
}

func TestPercentileExact(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.1, 10}, {0.05, 10}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
	if got := percentile([]int64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %d", got)
	}
}

func TestMedianOfRoundsAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even median %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrFrac %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 106}, verdictWithin},
		{lower, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{lower, steady, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{higher, steady, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{higher, steady, []float64{120, 121, 119, 120, 122}, verdictBetter},
		// A spread over the bound with overlapping rounds cannot be judged…
		{lower, []float64{60, 100, 140, 100, 80}, []float64{70, 110, 150, 110, 90}, verdictUnresolved},
		// …unless every round of one set beats every round of the other.
		{lower, []float64{60, 100, 140, 100, 80}, []float64{200, 240, 300, 260, 220}, verdictWorse},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

// smokeUnits shrinks a round to a few milliseconds.
var smokeUnits = map[string]int{
	"syscall_mix": 200, "proc_tree": 4, "sysv_rpc": 400, "ns_churn": 200, "httpd_fleet": 200,
}

func TestSpanNesting(t *testing.T) {
	prev := host.SetTraceLevel(host.TraceOn)
	defer host.SetTraceLevel(prev)
	tr := newTracer()
	r, err := runRound(workloadByName("syscall_mix"), 1, 0, 50, false, tr)
	tr.unregisterGauges()
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("misses: %v", r.misses)
	}
	spans := tr.snapshot()
	under := map[string]string{layerMonitor: layerLiblinux, layerLiblinux: layerBench, layerBench: layerBench}
	units := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Layer == layerBench && s.Name == "unit" {
			units++
			if s.Parent != 0 {
				t.Fatalf("unit span with a parent: %+v", s)
			}
			continue
		}
		if s.Parent == 0 {
			if s.Layer == layerBench {
				t.Fatalf("step outside a unit: %+v", s)
			}
			continue // set-up calls before the first unit
		}
		p := spans[s.Parent-1]
		if p.ID != s.Parent || p.ID >= s.ID {
			t.Fatalf("span %+v names parent %+v", s, p)
		}
		if p.Layer != under[s.Layer] {
			t.Fatalf("%s span %q under %s span %q", s.Layer, s.Name, p.Layer, p.Name)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v not inside its parent %+v", s, p)
		}
		if p.Unit != s.Unit {
			t.Fatalf("span %+v and its parent %+v disagree on the unit", s, p)
		}
	}
	if want := mixWarmup + 50; units != want {
		t.Fatalf("%d unit spans, want %d", units, want)
	}
}

// TestSmoke runs one shrunk round of every workload, timed, and the
// traced run of the two workloads that carry the bypass prediction:
// syscall_mix must issue no RPC at all, ns_churn must.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		cfg := runConfig{seed: 1, rounds: 1, units: smokeUnits[w.name], traceDir: t.TempDir()}
		res, err := runTimed(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.Failed, res.Attempted, res.Notes)
		}
		for _, def := range endToEnd {
			if m, ok := res.Metrics[def.Name]; !ok || m.Value <= 0 || m.Unit != def.Unit {
				t.Errorf("%s: %s = %+v", w.name, def.Name, m)
			}
		}
	}
	rpcs := map[string]float64{}
	for _, name := range []string{"syscall_mix", "ns_churn"} {
		w := workloadByName(name)
		cfg := runConfig{seed: 1, rounds: 1, units: smokeUnits[name], traceDir: t.TempDir()}
		res, err := runTraced(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d failed: %v", name, res.Failed, res.Attempted, res.Notes)
		}
		for _, def := range perLayer {
			if _, ok := res.Metrics[def.Name]; !ok {
				t.Errorf("%s traced: %s missing", name, def.Name)
			}
		}
		if _, err := os.Stat(spanFile(cfg.traceDir, name)); err != nil {
			t.Errorf("%s: span file: %v", name, err)
		}
		rpcs[name] = res.Metrics["ipc.rpcs_per_op"].Value
	}
	if rpcs["syscall_mix"] != 0 || rpcs["ns_churn"] <= 0 {
		t.Errorf("ipc.rpcs_per_op: syscall_mix %v (want 0), ns_churn %v (want > 0)", rpcs["syscall_mix"], rpcs["ns_churn"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the declarations in
// this package from drifting apart, and the declarations inside the
// contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkSpec
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := declaredSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the declarations; regenerate it with `go run ./benchmark -list > BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v", def.Name, def.Bound)
		}
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, def := range perLayer {
		if def.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", def.Name)
		}
	}
}
