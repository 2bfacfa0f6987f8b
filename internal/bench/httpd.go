package bench

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"graphene/internal/api"
	"graphene/internal/apps"
	"graphene/internal/host"
	"graphene/internal/metrics"
)

// HTTPDScale sizes the fleet-serving experiment.
type HTTPDScale struct {
	Workers   int // fleet size (the elastic ceiling when Floor > 0)
	RateRPS   int // open-loop offered load
	DurMS     int // load window
	Conc      int // loadgen connections
	TimeoutMS int // per-request client deadline
	ChaosMS   int // worker-kill interval during the window; 0 disables chaos
	Floor     int // elastic floor; 0 runs a fixed fleet of Workers
	WorkUS    int // synthetic per-request service time; 0 serves the docroot
}

// DefaultHTTPDScale matches the chaos acceptance run in the test suite.
func DefaultHTTPDScale() HTTPDScale {
	return HTTPDScale{Workers: 4, RateRPS: 400, DurMS: 1500, Conc: 8, TimeoutMS: 1000, ChaosMS: 250}
}

// HTTPDSweepScales is the elastic scale sweep: coordinates of (worker
// ceiling, offered load) with a 12 ms synthetic service time, so offered
// load translates to real worker demand (each worker with one credit
// serves ~83 rps; 4000 rps needs 48 busy workers). The fleet starts at a
// floor of 4 and must autoscale to the ceiling to absorb the load — the
// top coordinate offers 10x the PR-8 chaos run at a 64-worker ceiling.
func HTTPDSweepScales(quick bool) []HTTPDScale {
	if quick {
		return []HTTPDScale{
			{Workers: 8, RateRPS: 500, DurMS: 700, Conc: 16, TimeoutMS: 1000, Floor: 2, WorkUS: 12000},
		}
	}
	return []HTTPDScale{
		{Workers: 16, RateRPS: 1000, DurMS: 1500, Conc: 32, TimeoutMS: 1000, Floor: 4, WorkUS: 12000},
		{Workers: 64, RateRPS: 4000, DurMS: 1500, Conc: 128, TimeoutMS: 1000, Floor: 4, WorkUS: 12000},
	}
}

// DefaultHTTPDFailoverScale sizes the master-kill failover measurement.
func DefaultHTTPDFailoverScale(quick bool) HTTPDScale {
	sc := HTTPDScale{Workers: 4, RateRPS: 800, DurMS: 2000, Conc: 8, TimeoutMS: 1000}
	if quick {
		sc.RateRPS, sc.DurMS = 300, 1000
	}
	return sc
}

// HTTPDResult is one (system, workers, rate) coordinate of the fleet
// experiment. Scenario distinguishes the three experiments sharing the
// table: "chaos" (worker kills at a fixed interval), "scale" (elastic
// ramp to the worker ceiling under offered load), "failover" (master
// kill with a hot standby; FailoverMS is kill-to-first-served).
// OK/Shed/Errs classify client outcomes (shed = deliberate 503
// backpressure, not a failure); the percentiles are successful-request
// latency; ShedRate = shed / all outcomes.
type HTTPDResult struct {
	System     string
	Scenario   string
	Workers    int
	RateRPS    int
	OK         int64
	Shed       int64
	Errs       int64
	Kills      int
	P50US      int64
	P99US      int64
	P999US     int64
	Crashes    int
	ShedRate   float64
	FailoverMS int64
}

// HTTPDSLO gates the scale and failover rows: the fleet must not buy
// throughput with tail latency, sustained shedding, or a slow standby.
type HTTPDSLO struct {
	MaxP99US      int64
	MaxShedRate   float64
	MaxFailoverMS int64
}

// DefaultHTTPDSLO: p99 within 300 ms (the elastic ramp transient is paid
// inside the window), shed under 5%, standby serving within 500 ms of the
// master's death.
func DefaultHTTPDSLO() HTTPDSLO {
	return HTTPDSLO{MaxP99US: 300_000, MaxShedRate: 0.05, MaxFailoverMS: 500}
}

// CheckHTTPDSLO validates scale/failover rows against the gates; chaos
// rows pass through (their acceptance lives in the test suite).
func CheckHTTPDSLO(rows []HTTPDResult, slo HTTPDSLO) error {
	for _, r := range rows {
		if r.Scenario != "scale" && r.Scenario != "failover" {
			continue
		}
		if r.OK == 0 {
			return fmt.Errorf("%s %s w=%d r=%d: no successful requests", r.System, r.Scenario, r.Workers, r.RateRPS)
		}
		if r.P99US > slo.MaxP99US {
			return fmt.Errorf("%s %s w=%d r=%d: p99 %dus > %dus", r.System, r.Scenario, r.Workers, r.RateRPS, r.P99US, slo.MaxP99US)
		}
		if r.ShedRate > slo.MaxShedRate {
			return fmt.Errorf("%s %s w=%d r=%d: shed rate %.3f > %.3f", r.System, r.Scenario, r.Workers, r.RateRPS, r.ShedRate, slo.MaxShedRate)
		}
		if r.Scenario == "failover" && r.FailoverMS > slo.MaxFailoverMS {
			return fmt.Errorf("%s failover: %dms > %dms", r.System, r.FailoverMS, slo.MaxFailoverMS)
		}
	}
	return nil
}

// httpdEnv abstracts one system for the fleet run. killOne injects one
// worker kill and reports whether a victim existed; how depends on the
// system (guest-level SIGKILL where processes share a kernel, host-level
// termination for Graphene, whose sandboxes cannot signal each other by
// design).
type httpdEnv struct {
	name    string
	seed    func(path string, data []byte) error
	read    func(path string) ([]byte, error)
	launch  func(path string, argv []string) (wait func() (int, error), err error)
	killOne func() bool
}

const httpdSB = "/bench-sb"

// HTTPD runs the chaos fleet experiment on all three systems.
func HTTPD(sc HTTPDScale) ([]HTTPDResult, error) {
	envs, err := httpdEnvs()
	if err != nil {
		return nil, err
	}
	var out []HTTPDResult
	for _, e := range envs {
		row, err := runHTTPDOn(e, sc, "chaos", "127.0.0.1:8390", httpdSB)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// HTTPDScaleSweep runs the elastic scale sweep on all three systems: one
// row per (system, worker-ceiling, rate) coordinate. The fleet starts at
// sc.Floor workers and the autoscaler must grow it to the ceiling to
// absorb the offered load; the row records what the clients saw while it
// did.
func HTTPDScaleSweep(scales []HTTPDScale) ([]HTTPDResult, error) {
	envs, err := httpdEnvs()
	if err != nil {
		return nil, err
	}
	var out []HTTPDResult
	for _, e := range envs {
		for i, sc := range scales {
			// Per-coordinate scoreboard: coordinates share the env, and the
			// previous run's stop file must not drain the next master at
			// boot.
			row, err := runHTTPDOn(e, sc, "scale",
				"127.0.0.1:"+strconv.Itoa(8391+i), httpdSB+"-scale"+strconv.Itoa(i))
			if err != nil {
				return nil, fmt.Errorf("%s w=%d r=%d: %w", e.name, sc.Workers, sc.RateRPS, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func httpdEnvs() ([]httpdEnv, error) {
	killPID := func(p api.OS, argv []string) int {
		pid, _ := strconv.Atoi(argv[1])
		if err := p.Kill(pid, api.SIGKILL); err != nil {
			return 1
		}
		return 0
	}

	ge, err := NewGraphene()
	if err != nil {
		return nil, err
	}
	var masterHostID atomic.Int64
	var victim atomic.Int64
	graphene := httpdEnv{
		name: "Graphene",
		seed: func(path string, data []byte) error { return ge.Kernel.FS.WriteFile(path, data, 0644) },
		read: func(path string) ([]byte, error) { return ge.Kernel.FS.ReadFile(path) },
		launch: func(path string, argv []string) (func() (int, error), error) {
			res, err := ge.Runtime.Launch(ge.Manifest, path, argv)
			if err != nil {
				return nil, err
			}
			if path == "/bin/httpd-fleet" {
				masterHostID.Store(int64(res.Process.PAL().Proc().ID))
			}
			return func() (int, error) {
				return waitResult(res.Done, func() int { return res.ExitCode() }, workloadDeadline)
			}, nil
		},
		killOne: func() bool {
			var procs []*host.Picoprocess
			for _, pp := range ge.Kernel.Processes() {
				if pp.ParentID == int(masterHostID.Load()) && !pp.Dead() {
					procs = append(procs, pp)
				}
			}
			if len(procs) == 0 {
				return false
			}
			procs[int(victim.Add(1))%len(procs)].Exit(137)
			return true
		},
	}

	ne, err := NewNative()
	if err != nil {
		return nil, err
	}
	if err := ne.Kernel.RegisterProgram("/bin/killpid", killPID); err != nil {
		return nil, err
	}
	native := httpdEnv{
		name: "Linux",
		seed: func(path string, data []byte) error { return ne.Kernel.FS.WriteFile(path, data, 0644) },
		read: func(path string) ([]byte, error) { return ne.Kernel.FS.ReadFile(path) },
		launch: func(path string, argv []string) (func() (int, error), error) {
			res, err := ne.Kernel.Launch(path, argv)
			if err != nil {
				return nil, err
			}
			return func() (int, error) {
				return waitResult(res.Done, func() int { return res.ExitCode() }, workloadDeadline)
			}, nil
		},
	}
	native.killOne = guestKillOne(&native)

	ke, err := NewKVM()
	if err != nil {
		return nil, err
	}
	if err := ke.VM.RegisterProgram("/bin/killpid", killPID); err != nil {
		return nil, err
	}
	gk := ke.VM.Guest()
	kvmEnv := httpdEnv{
		name: "KVM",
		seed: func(path string, data []byte) error { return gk.FS.WriteFile(path, data, 0644) },
		read: func(path string) ([]byte, error) { return gk.FS.ReadFile(path) },
		launch: func(path string, argv []string) (func() (int, error), error) {
			res, err := ke.VM.Launch(path, argv)
			if err != nil {
				return nil, err
			}
			return func() (int, error) {
				return waitResult(res.Done, func() int { return res.ExitCode() }, workloadDeadline)
			}, nil
		},
	}
	kvmEnv.killOne = guestKillOne(&kvmEnv)

	return []httpdEnv{graphene, native, kvmEnv}, nil
}

// guestKillOne kills a scoreboard-listed worker through a guest program —
// the shared-kernel systems let any process signal any other, which is
// the asymmetry §6.6 measures.
func guestKillOne(e *httpdEnv) func() bool {
	var victim atomic.Int64
	return func() bool {
		data, err := e.read(httpdSB)
		if err != nil {
			return false
		}
		pids := boardPIDs(string(data))
		if len(pids) == 0 {
			return false
		}
		pid := pids[int(victim.Add(1))%len(pids)]
		wait, err := e.launch("/bin/killpid", []string{"killpid", strconv.Itoa(pid)})
		if err != nil {
			return false
		}
		code, err := wait()
		return err == nil && code == 0
	}
}

func runHTTPDOn(e httpdEnv, sc HTTPDScale, scenario, addr, sb string) (HTTPDResult, error) {
	if err := e.seed("/www-index", []byte(strings.Repeat("x", 200))); err != nil {
		return HTTPDResult{}, err
	}
	floor := sc.Workers
	args := []string{
		"httpd-fleet", addr, strconv.Itoa(sc.Workers), "/",
		"sb=" + sb, "cap=" + strconv.Itoa(sc.Workers),
		"queue=128", "shed_ms=300",
	}
	if sc.Floor > 0 {
		// Elastic: one credit per worker so queue depth tracks worker
		// demand, a fast doubling cadence, and no scale-down inside the
		// measurement window.
		floor = sc.Floor
		args = []string{
			"httpd-fleet", addr, strconv.Itoa(sc.Floor), "/",
			"sb=" + sb, "cap=1", "queue=512", "shed_ms=400",
			"max=" + strconv.Itoa(sc.Workers),
			"scale_up_queue=4", "up_cooldown_ms=10", "idle_ms=30000",
		}
	}
	masterWait, err := e.launch("/bin/httpd-fleet", args)
	if err != nil {
		return HTTPDResult{}, err
	}
	if err := waitHTTPDBoard(e, sb, 10*time.Second, func(l string) bool {
		return boardField(l, "alive") == floor
	}); err != nil {
		return HTTPDResult{}, err
	}

	// Client outcomes flow through the loadgen sink into a fresh registry;
	// only successful requests feed the latency histogram.
	reg := metrics.NewRegistry()
	var ok, shed, errs atomic.Int64
	apps.SetLoadgenSink(func(class string, latencyUS int64) {
		switch class {
		case "ok":
			ok.Add(1)
			reg.Histogram("httpd.ok").Observe(latencyUS * 1000)
		case "shed":
			shed.Add(1)
		default:
			errs.Add(1)
		}
	})
	defer apps.SetLoadgenSink(nil)

	chaosStop := make(chan struct{})
	chaosDone := make(chan int, 1)
	go func() {
		kills := 0
		defer func() { chaosDone <- kills }()
		if sc.ChaosMS <= 0 {
			<-chaosStop
			return
		}
		tick := time.NewTicker(time.Duration(sc.ChaosMS) * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-chaosStop:
				return
			case <-tick.C:
				if e.killOne() {
					kills++
				}
			}
		}
	}()

	path := "/www-index"
	if sc.WorkUS > 0 {
		path = "/__work_" + strconv.Itoa(sc.WorkUS)
	}
	lgWait, err := e.launch("/bin/loadgen", []string{
		"loadgen", addr, path, strconv.Itoa(sc.RateRPS),
		strconv.Itoa(sc.DurMS), strconv.Itoa(sc.Conc),
		"timeout_ms=" + strconv.Itoa(sc.TimeoutMS),
	})
	if err != nil {
		close(chaosStop)
		return HTTPDResult{}, err
	}
	if sc.Floor > 0 {
		// The elastic gate: the load must actually drive the fleet to the
		// worker ceiling inside the window.
		if err := waitHTTPDBoard(e, sb, time.Duration(sc.DurMS)*time.Millisecond+5*time.Second,
			func(l string) bool { return boardField(l, "alive") == sc.Workers }); err != nil {
			close(chaosStop)
			return HTTPDResult{}, fmt.Errorf("never scaled to ceiling %d: %w", sc.Workers, err)
		}
	}
	code, err := lgWait()
	close(chaosStop)
	kills := <-chaosDone
	if err != nil || code != 0 {
		return HTTPDResult{}, fmt.Errorf("loadgen: code=%d err=%v", code, err)
	}

	// Continuity check before drain: the fleet is back at full strength.
	if err := waitHTTPDBoard(e, sb, 10*time.Second, func(l string) bool {
		return boardField(l, "alive") == sc.Workers
	}); err != nil {
		return HTTPDResult{}, err
	}
	board, _ := e.read(sb)
	crashes := boardField(string(board), "crashes")

	if err := e.seed(sb+".stop", nil); err != nil {
		return HTTPDResult{}, err
	}
	if code, err := masterWait(); err != nil || code != 0 {
		return HTTPDResult{}, fmt.Errorf("fleet master exit: code=%d err=%v", code, err)
	}

	snap := reg.Histogram("httpd.ok").Snapshot()
	r := HTTPDResult{
		System: e.name, Scenario: scenario,
		Workers: sc.Workers, RateRPS: sc.RateRPS,
		OK: ok.Load(), Shed: shed.Load(), Errs: errs.Load(),
		Kills: kills,
		P50US: snap.P50 / 1e3, P99US: snap.P99 / 1e3, P999US: snap.P999 / 1e3,
		Crashes: crashes,
	}
	if total := r.OK + r.Shed + r.Errs; total > 0 {
		r.ShedRate = float64(r.Shed) / float64(total)
	}
	return r, nil
}

// HTTPDFailover measures the hot-standby handover on Graphene: a fleet
// with standby=1 serves open-loop load, the primary master is killed at
// the host (the standby's FaultPlan-free hard variant) a third of the way
// into the window, and FailoverMS is the wall-clock gap from the kill to
// the first request the promoted master serves. Graphene-only: killing
// the master from outside the sandbox is a host-level act — the
// shared-kernel baselines have no analogous external killer that isn't
// just another process.
func HTTPDFailover(sc HTTPDScale) (HTTPDResult, error) {
	ge, err := NewGraphene()
	if err != nil {
		return HTTPDResult{}, err
	}
	getOnce := func(p api.OS, argv []string) int {
		fd, err := p.Connect(api.SockAddr(argv[1]))
		if err != nil {
			return 1
		}
		defer p.Close(fd)
		if _, err := p.Write(fd, []byte("GET "+argv[2]+"\n")); err != nil {
			return 1
		}
		buf := make([]byte, 8)
		if n, err := p.Read(fd, buf); err != nil || n < 2 || string(buf[:2]) != "OK" {
			return 1
		}
		return 0
	}
	if err := ge.Runtime.RegisterProgram("/bin/getonce", getOnce); err != nil {
		return HTTPDResult{}, err
	}
	if err := ge.Kernel.FS.WriteFile("/www-index", []byte(strings.Repeat("x", 200)), 0644); err != nil {
		return HTTPDResult{}, err
	}
	e := httpdEnv{read: func(path string) ([]byte, error) { return ge.Kernel.FS.ReadFile(path) }}
	const addr = "127.0.0.1:8395"
	res, err := ge.Runtime.Launch(ge.Manifest, "/bin/httpd-fleet", []string{
		"httpd-fleet", addr, strconv.Itoa(sc.Workers), "/",
		"sb=" + httpdSB, "cap=4", "queue=256", "shed_ms=400",
		"standby=1",
	})
	if err != nil {
		return HTTPDResult{}, err
	}
	masterProc := res.Process.PAL().Proc()
	if err := waitHTTPDBoard(e, httpdSB, 10*time.Second, func(l string) bool {
		return boardField(l, "alive") == sc.Workers && boardField(l, "takeovers") == 0
	}); err != nil {
		return HTTPDResult{}, err
	}

	reg := metrics.NewRegistry()
	var ok, shed, errs atomic.Int64
	apps.SetLoadgenSink(func(class string, latencyUS int64) {
		switch class {
		case "ok":
			ok.Add(1)
			reg.Histogram("httpd.ok").Observe(latencyUS * 1000)
		case "shed":
			shed.Add(1)
		default:
			errs.Add(1)
		}
	})
	defer apps.SetLoadgenSink(nil)

	lgRes, err := ge.Runtime.Launch(ge.Manifest, "/bin/loadgen", []string{
		"loadgen", addr, "/www-index", strconv.Itoa(sc.RateRPS),
		strconv.Itoa(sc.DurMS), strconv.Itoa(sc.Conc),
		"timeout_ms=" + strconv.Itoa(sc.TimeoutMS),
	})
	if err != nil {
		return HTTPDResult{}, err
	}
	time.Sleep(time.Duration(sc.DurMS/3) * time.Millisecond)

	killedAt := time.Now()
	masterProc.Exit(137)
	var failoverMS int64 = -1
	for time.Since(killedAt) < 5*time.Second {
		code, err := ge.Run("/bin/getonce", addr, "/www-index")
		if err == nil && code == 0 {
			failoverMS = time.Since(killedAt).Milliseconds()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if failoverMS < 0 {
		return HTTPDResult{}, fmt.Errorf("promoted master never served after the kill")
	}
	if code, err := waitResult(lgRes.Done, func() int { return lgRes.ExitCode() }, workloadDeadline); err != nil || code != 0 {
		return HTTPDResult{}, fmt.Errorf("loadgen: code=%d err=%v", code, err)
	}
	if err := waitHTTPDBoard(e, httpdSB, 10*time.Second, func(l string) bool {
		return boardField(l, "takeovers") == 1 && boardField(l, "alive") == sc.Workers
	}); err != nil {
		return HTTPDResult{}, err
	}
	board, _ := e.read(httpdSB)
	crashes := boardField(string(board), "crashes")

	// Drain the promoted master via the stop file; it isn't directly
	// waitable (the standby was forked inside the fleet), so convergence is
	// the scoreboard reporting a completed drain.
	if err := ge.Kernel.FS.WriteFile(httpdSB+".stop", nil, 0644); err != nil {
		return HTTPDResult{}, err
	}
	if err := waitHTTPDBoard(e, httpdSB, 10*time.Second, func(l string) bool {
		return boardField(l, "draining") == 1 && boardField(l, "alive") == 0
	}); err != nil {
		return HTTPDResult{}, err
	}

	snap := reg.Histogram("httpd.ok").Snapshot()
	r := HTTPDResult{
		System: "Graphene", Scenario: "failover",
		Workers: sc.Workers, RateRPS: sc.RateRPS,
		OK: ok.Load(), Shed: shed.Load(), Errs: errs.Load(),
		P50US: snap.P50 / 1e3, P99US: snap.P99 / 1e3, P999US: snap.P999 / 1e3,
		Crashes:    crashes,
		FailoverMS: failoverMS,
	}
	if total := r.OK + r.Shed + r.Errs; total > 0 {
		r.ShedRate = float64(r.Shed) / float64(total)
	}
	return r, nil
}

func waitHTTPDBoard(e httpdEnv, sb string, d time.Duration, cond func(line string) bool) error {
	deadline := time.Now().Add(d)
	last := "(missing)"
	for time.Now().Before(deadline) {
		if data, err := e.read(sb); err == nil {
			last = string(data)
			if cond(last) {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("scoreboard never converged; last: %s", strings.TrimSpace(last))
}

// boardField extracts an integer "key=value" field from a scoreboard
// line, -1 if absent.
func boardField(line, key string) int {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				return n
			}
		}
	}
	return -1
}

// boardPIDs extracts the live worker PIDs from a scoreboard line.
func boardPIDs(line string) []int {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "pids="); ok {
			var out []int
			for _, s := range strings.Split(v, ",") {
				if n, err := strconv.Atoi(s); err == nil && n > 0 {
					out = append(out, n)
				}
			}
			return out
		}
	}
	return nil
}

// RenderHTTPD formats the fleet rows across all three scenarios.
func RenderHTTPD(rows []HTTPDResult) string {
	var b strings.Builder
	b.WriteString("HTTP fleet: chaos continuity, elastic scale sweep, standby failover\n")
	b.WriteString(fmt.Sprintf("%-10s %-9s %7s %6s %8s %6s %6s %6s %8s %9s %9s %7s %9s\n",
		"System", "scenario", "workers", "rate", "ok", "shed", "err", "kills", "crashes", "p50(us)", "p99(us)", "shed%", "fail(ms)"))
	for _, r := range rows {
		fail := "-"
		if r.Scenario == "failover" {
			fail = strconv.FormatInt(r.FailoverMS, 10)
		}
		b.WriteString(fmt.Sprintf("%-10s %-9s %7d %6d %8d %6d %6d %6d %8d %9d %9d %7.2f %9s\n",
			r.System, r.Scenario, r.Workers, r.RateRPS, r.OK, r.Shed, r.Errs, r.Kills,
			r.Crashes, r.P50US, r.P99US, 100*r.ShedRate, fail))
	}
	return b.String()
}
