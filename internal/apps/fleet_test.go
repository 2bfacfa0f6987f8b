package apps

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/baseline/kvm"
	"graphene/internal/baseline/native"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/metrics"
	"graphene/internal/monitor"
)

// The fleet tests exercise the supervised prefork server end to end on
// all three personalities: spawn, crash-respawn, circuit breaking,
// overload shedding, quarantine, drain, and the chaos SLO acceptance run.
//
// Chaos injection differs by personality. On native and KVM the shared
// in-guest kernel lets an ordinary guest program SIGKILL a worker, so
// kills run through /bin/testkill (and /bin/fleetchaos for schedules). On
// Graphene, per-launch sandbox isolation makes cross-launch signalling
// impossible by design, so worker kills are injected at the host layer:
// the test enumerates the master's child picoprocesses and force-exits
// one, exactly what a host-level `kill -9` of a picoprocess does.

const fleetSB = "/sb"

// fleetEnv is one personality plus the chaos controls the fleet tests
// need beyond the basic app env.
type fleetEnv struct {
	name   string
	launch func(path string, argv []string) (func(*testing.T) int, error)
	seed   func(path string, data []byte) error
	read   func(path string) ([]byte, error)
	unlink func(path string) error
	// startMaster launches httpd-fleet and returns the master's waiter
	// plus a killOne bound to this master's current workers. killOne
	// returns false when no live worker could be found.
	startMaster func(argv []string) (wait func(*testing.T) int, killOne func() bool, err error)
}

// testKillProgram is /bin/testkill on native and KVM: SIGKILL one pid.
func testKillProgram(p api.OS, argv []string) int {
	if len(argv) < 2 {
		return 2
	}
	if err := p.Kill(atoiOr(argv[1], 0), api.SIGKILL); err != nil {
		return 1
	}
	return 0
}

// getOnceProgram is /bin/get1 everywhere: a single GET, exit 0 on a
// complete OK response. Used where exactly one request must be issued
// (wedging one worker, triggering one sandbox split).
func getOnceProgram(p api.OS, argv []string) int {
	if len(argv) < 3 {
		return 2
	}
	if _, err := fetchOnce(p, api.SockAddr(argv[1]), argv[2]); err != nil {
		return 1
	}
	return 0
}

// grapheneFleetHost bundles the host-level handles the Graphene-only
// chaos tests (partition, fault plans) need alongside the env.
type grapheneFleetHost struct {
	k  *host.Kernel
	rt *liblinux.Runtime
	// masterHostID and masterProc are set by startMaster.
	masterHostID int
	masterProc   *host.Picoprocess
}

// workerProcs returns the master's live child picoprocesses.
func (g *grapheneFleetHost) workerProcs() []*host.Picoprocess {
	var out []*host.Picoprocess
	for _, pp := range g.k.Processes() {
		if pp.ParentID == g.masterHostID && !pp.Dead() {
			out = append(out, pp)
		}
	}
	return out
}

func grapheneFleet(t *testing.T) (fleetEnv, *grapheneFleetHost) {
	t.Helper()
	k := host.NewKernel()
	m := monitor.New(k)
	rt := liblinux.NewRuntime(k, m)
	if err := RegisterAll(rt.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterProgram("/bin/get1", getOnceProgram); err != nil {
		t.Fatal(err)
	}
	man, err := monitor.ParseManifest("fleet", "mount / /\nallow_read /\nallow_write /\nnet_listen *:*\nnet_connect *:*\n")
	if err != nil {
		t.Fatal(err)
	}
	g := &grapheneFleetHost{k: k, rt: rt}
	launch := func(path string, argv []string) (func(*testing.T) int, error) {
		res, err := rt.Launch(man, path, argv)
		if err != nil {
			return nil, err
		}
		return func(t *testing.T) int {
			select {
			case <-res.Done:
				return res.ExitCode()
			case <-time.After(120 * time.Second):
				t.Fatal("graphene app hung")
				return -1
			}
		}, nil
	}
	env := fleetEnv{
		name:   "graphene",
		launch: launch,
		seed:   func(path string, data []byte) error { return k.FS.WriteFile(path, data, 0644) },
		read:   func(path string) ([]byte, error) { return k.FS.ReadFile(path) },
		unlink: func(path string) error { return k.FS.Unlink(path) },
		startMaster: func(argv []string) (func(*testing.T) int, func() bool, error) {
			res, err := rt.Launch(man, "/bin/httpd-fleet", argv)
			if err != nil {
				return nil, nil, err
			}
			g.masterProc = res.Process.PAL().Proc()
			g.masterHostID = g.masterProc.ID
			wait := func(t *testing.T) int {
				select {
				case <-res.Done:
					return res.ExitCode()
				case <-time.After(120 * time.Second):
					t.Fatal("fleet master hung")
					return -1
				}
			}
			var victim atomic.Int64
			killOne := func() bool {
				procs := g.workerProcs()
				if len(procs) == 0 {
					return false
				}
				procs[int(victim.Add(1))%len(procs)].Exit(137)
				return true
			}
			return wait, killOne, nil
		},
	}
	return env, g
}

// guestFleet builds a fleetEnv over a native-style guest kernel (used
// directly for native, and through vm.Guest() for KVM).
func guestFleet(t *testing.T, name string, gk *native.Kernel,
	register func(path string, prog api.Program) error,
	launch func(path string, argv []string) (func(*testing.T) int, error)) fleetEnv {
	t.Helper()
	if err := register("/bin/testkill", testKillProgram); err != nil {
		t.Fatal(err)
	}
	if err := register("/bin/get1", getOnceProgram); err != nil {
		t.Fatal(err)
	}
	var victim atomic.Int64
	return fleetEnv{
		name:   name,
		launch: launch,
		seed:   func(path string, data []byte) error { return gk.FS.WriteFile(path, data, 0644) },
		read:   func(path string) ([]byte, error) { return gk.FS.ReadFile(path) },
		unlink: func(path string) error { return gk.FS.Unlink(path) },
		startMaster: func(argv []string) (func(*testing.T) int, func() bool, error) {
			wait, err := launch("/bin/httpd-fleet", argv)
			if err != nil {
				return nil, nil, err
			}
			killOne := func() bool {
				data, err := gk.FS.ReadFile(fleetSB)
				if err != nil {
					return false
				}
				pids := scoreboardPIDs(string(data))
				if len(pids) == 0 {
					return false
				}
				pid := pids[int(victim.Add(1))%len(pids)]
				kwait, err := launch("/bin/testkill", []string{"testkill", strconv.Itoa(pid)})
				if err != nil {
					return false
				}
				return kwait(t) == 0
			}
			return wait, killOne, nil
		},
	}
}

func nativeFleet(t *testing.T) fleetEnv {
	t.Helper()
	k := native.NewKernel()
	if err := RegisterAll(k.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	launch := func(path string, argv []string) (func(*testing.T) int, error) {
		res, err := k.Launch(path, argv)
		if err != nil {
			return nil, err
		}
		return func(t *testing.T) int {
			select {
			case <-res.Done:
				return res.ExitCode()
			case <-time.After(120 * time.Second):
				t.Fatal("native app hung")
				return -1
			}
		}, nil
	}
	return guestFleet(t, "native", k, k.RegisterProgram, launch)
}

func kvmFleet(t *testing.T) fleetEnv {
	t.Helper()
	vm := kvm.StartVM()
	if err := RegisterAll(vm.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	launch := func(path string, argv []string) (func(*testing.T) int, error) {
		res, err := vm.Launch(path, argv)
		if err != nil {
			return nil, err
		}
		return func(t *testing.T) int {
			select {
			case <-res.Done:
				return res.ExitCode()
			case <-time.After(120 * time.Second):
				t.Fatal("kvm app hung")
				return -1
			}
		}, nil
	}
	return guestFleet(t, "kvm", vm.Guest(), vm.RegisterProgram, launch)
}

func allFleetEnvs(t *testing.T) []fleetEnv {
	g, _ := grapheneFleet(t)
	return []fleetEnv{g, nativeFleet(t), kvmFleet(t)}
}

// sinkCounts tallies loadgen outcomes through the package sample hook,
// which works identically on every personality because all of them run
// in-process.
type sinkCounts struct{ ok, shed, errs atomic.Int64 }

func installSink(t *testing.T, reg *metrics.Registry) *sinkCounts {
	t.Helper()
	c := &sinkCounts{}
	SetLoadgenSink(func(class string, latencyUS int64) {
		switch class {
		case "ok":
			c.ok.Add(1)
		case "shed":
			c.shed.Add(1)
		default:
			c.errs.Add(1)
		}
		if reg != nil {
			reg.Histogram("fleet." + class).Observe(latencyUS * 1000)
		}
	})
	t.Cleanup(func() { SetLoadgenSink(nil) })
	return c
}

// waitBoard polls the scoreboard until cond holds, failing after timeout.
func waitBoard(t *testing.T, e fleetEnv, timeout time.Duration, what string, cond func(line string) bool) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	last := "(missing)"
	for time.Now().Before(deadline) {
		if data, err := e.read(fleetSB); err == nil {
			last = string(data)
			if cond(last) {
				return last
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("scoreboard never reached %s; last: %s", what, last)
	return ""
}

func seedDocroot(t *testing.T, e fleetEnv) {
	t.Helper()
	if err := e.seed("/www-index", []byte(strings.Repeat("x", 200))); err != nil {
		t.Fatal(err)
	}
}

// drainFleet asks the master to drain via the stop file and checks a
// clean exit.
func drainFleet(t *testing.T, e fleetEnv, wait func(*testing.T) int) {
	t.Helper()
	if err := e.seed(fleetSB+".stop", nil); err != nil {
		t.Fatal(err)
	}
	if code := wait(t); code != 0 {
		t.Fatalf("fleet master exit = %d, want 0", code)
	}
}

func fleetArgs(addr string, nworkers int, extra ...string) []string {
	argv := []string{"httpd-fleet", addr, strconv.Itoa(nworkers), "/", "sb=" + fleetSB}
	return append(argv, extra...)
}

// TestFleetServesAndDrains: the happy path on every personality — boot,
// serve a closed-loop burst with zero client-visible errors, then drain
// on the stop file with every worker reaped and a clean exit.
func TestFleetServesAndDrains(t *testing.T) {
	for _, e := range allFleetEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			seedDocroot(t, e)
			c := installSink(t, nil)
			wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8200", 4))
			if err != nil {
				t.Fatal(err)
			}
			waitBoard(t, e, 5*time.Second, "alive=4", func(l string) bool {
				return scoreboardField(l, "alive") == 4
			})
			lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8200", "/www-index", "0", "300", "4"})
			if err != nil {
				t.Fatal(err)
			}
			if code := lg(t); code != 0 {
				t.Fatalf("loadgen exit = %d", code)
			}
			if c.ok.Load() == 0 {
				t.Fatal("no successful requests")
			}
			if n := c.errs.Load(); n != 0 {
				t.Fatalf("%d client-visible errors on an unchaosed fleet", n)
			}
			drainFleet(t, e, wait)
			board := waitBoard(t, e, 2*time.Second, "drained", func(l string) bool {
				return scoreboardField(l, "draining") == 1 && scoreboardField(l, "alive") == 0
			})
			if d, c2 := scoreboardField(board, "dispatched"), scoreboardField(board, "completed"); d != c2 {
				t.Fatalf("drain lost requests: dispatched=%d completed=%d", d, c2)
			}
		})
	}
}

// TestFleetRespawnsCrashedWorkers: kill workers one at a time on every
// personality; the supervisor must reap and restore the full fleet.
func TestFleetRespawnsCrashedWorkers(t *testing.T) {
	for _, e := range allFleetEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			seedDocroot(t, e)
			wait, killOne, err := e.startMaster(fleetArgs("127.0.0.1:8201", 4))
			if err != nil {
				t.Fatal(err)
			}
			waitBoard(t, e, 5*time.Second, "alive=4", func(l string) bool {
				return scoreboardField(l, "alive") == 4
			})
			for round := 1; round <= 2; round++ {
				if !killOne() {
					t.Fatalf("round %d: no worker to kill", round)
				}
				want := round
				waitBoard(t, e, 5*time.Second, "crash seen and fleet restored", func(l string) bool {
					return scoreboardField(l, "crashes") >= want && scoreboardField(l, "alive") == 4
				})
			}
			// The restored fleet still serves.
			g1, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8201", "/www-index"})
			if err != nil {
				t.Fatal(err)
			}
			if code := g1(t); code != 0 {
				t.Fatalf("get1 after respawn = %d", code)
			}
			drainFleet(t, e, wait)
		})
	}
}

// TestFleetBreakerDegradesAndRecovers: a crash-looping docroot (poisoned
// slots exit immediately) must trip the per-slot circuit breaker after a
// bounded number of respawns — degrading to the healthy subset, which
// keeps serving — and heal once the poison is removed.
func TestFleetBreakerDegradesAndRecovers(t *testing.T) {
	g, _ := grapheneFleet(t)
	for _, e := range []fleetEnv{g, nativeFleet(t)} {
		e := e
		t.Run(e.name, func(t *testing.T) {
			seedDocroot(t, e)
			for _, slot := range []int{2, 3} {
				if err := e.seed("/.poison-"+strconv.Itoa(slot), []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8202", 4,
				"breaker=2", "cooldown_ms=200", "min_healthy_ms=150"))
			if err != nil {
				t.Fatal(err)
			}
			board := waitBoard(t, e, 5*time.Second, "breaker open on 2 slots", func(l string) bool {
				return scoreboardField(l, "breaker") == 2 && scoreboardField(l, "alive") == 2
			})
			// The budget: each poisoned slot got at most breaker initial
			// tries plus breaker re-tries per elapsed cooldown — nothing
			// resembling a fork storm.
			if crashes := scoreboardField(board, "crashes"); crashes > 20 {
				t.Fatalf("crash-loop was not contained: %d crashes", crashes)
			}
			// Degraded fleet still serves.
			c := installSink(t, nil)
			lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8202", "/www-index", "0", "200", "2"})
			if err != nil {
				t.Fatal(err)
			}
			if code := lg(t); code != 0 {
				t.Fatalf("loadgen exit = %d", code)
			}
			if c.ok.Load() == 0 || c.errs.Load() != 0 {
				t.Fatalf("degraded fleet not serving cleanly: ok=%d err=%d", c.ok.Load(), c.errs.Load())
			}
			// Remove the poison: half-open probes must restore the fleet.
			for _, slot := range []int{2, 3} {
				if err := e.unlink("/.poison-" + strconv.Itoa(slot)); err != nil {
					t.Fatal(err)
				}
			}
			waitBoard(t, e, 10*time.Second, "breaker closed, fleet whole", func(l string) bool {
				return scoreboardField(l, "alive") == 4 && scoreboardField(l, "breaker") == 0
			})
			drainFleet(t, e, wait)
		})
	}
}

// TestFleetShedsOverload: with one worker wedged and a deep backlog, the
// master must answer excess load with fast ERR 503s — counted as shed,
// not as errors or unbounded queueing.
func TestFleetShedsOverload(t *testing.T) {
	e, _ := grapheneFleet(t)
	seedDocroot(t, e)
	wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8203", 1,
		"cap=1", "queue=4", "shed_ms=50", "wedge_ms=10000", "drain_ms=300"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=1", func(l string) bool {
		return scoreboardField(l, "alive") == 1
	})
	// Wedge the only worker: it takes one request and stops progressing.
	if _, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8203", "/__wedge"}); err != nil {
		t.Fatal(err)
	}
	c := installSink(t, nil)
	lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8203", "/www-index", "0", "300", "4", "timeout_ms=400"})
	if err != nil {
		t.Fatal(err)
	}
	if code := lg(t); code != 0 {
		t.Fatalf("loadgen exit = %d", code)
	}
	if c.shed.Load() == 0 {
		t.Fatalf("overloaded fleet shed nothing: ok=%d shed=%d err=%d",
			c.ok.Load(), c.shed.Load(), c.errs.Load())
	}
	board := waitBoard(t, e, 2*time.Second, "shed recorded", func(l string) bool {
		return scoreboardField(l, "shed") > 0
	})
	_ = board
	drainFleet(t, e, wait)
}

// The wedge-quarantine lifecycle (quarantine after wedge_ms, kill after
// kill_grace_ms, replacement) is timing policy, and timing policy is
// tested on the virtual clock: TestSimWedgeQuarantineKillReplace asserts the
// exact virtual timestamps of every transition with zero real sleeps. The
// end-to-end /__wedge path stays covered by TestFleetShedsOverload and
// TestFleetQuarantinePartitionHeals, which wait on events, not timers.

// TestFleetQuarantinePartitionHeals: a master↔worker network partition
// stalls the worker's liveness bytes while connection passing (and the
// worker's own serving) continues, so the master quarantines it rather
// than dispatching into the void; after the partition heals the fleet
// converges back to full strength. Graphene-only: partitions are a
// host-stream concept between picoprocesses.
func TestFleetQuarantinePartitionHeals(t *testing.T) {
	e, g := grapheneFleet(t)
	seedDocroot(t, e)
	wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8205", 2,
		"cap=2", "wedge_ms=150", "kill_grace_ms=150", "kill_retry_ms=200", "shed_ms=600"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=2", func(l string) bool {
		return scoreboardField(l, "alive") == 2
	})
	procs := g.workerProcs()
	if len(procs) != 2 {
		t.Fatalf("want 2 worker picoprocesses, got %d", len(procs))
	}
	part := procs[0]
	g.k.Partition(part.ID, g.masterHostID)
	// Offer load: dispatch into the partitioned worker still works (it
	// serves its clients fine), but its completion bytes stall, so the
	// master sees held credits without progress and quarantines it.
	c := installSink(t, nil)
	lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8205", "/www-index", "0", "400", "4", "timeout_ms=500"})
	if err != nil {
		t.Fatal(err)
	}
	_ = lg(t)
	waitBoard(t, e, 5*time.Second, "partitioned worker quarantined", func(l string) bool {
		return scoreboardField(l, "quarantined") >= 1
	})
	if c.ok.Load() == 0 {
		t.Fatal("healthy worker stopped serving during partition")
	}
	g.k.Heal(part.ID, g.masterHostID)
	// After heal the master either sees resumed progress (and lifts the
	// quarantine) or its retried kill lands (and the slot respawns);
	// both converge to a whole, unquarantined fleet.
	waitBoard(t, e, 10*time.Second, "fleet whole after heal", func(l string) bool {
		return scoreboardField(l, "alive") == 2 && scoreboardField(l, "quarantined") == 0
	})
	drainFleet(t, e, wait)
}

// TestFleetSurvivesSandboxSplit: a worker seceding into its own sandbox
// (sandbox_create) severs every stream shared with the master — the
// dispatch pipe, the status pipe. The master must treat it like any other
// departure: detect, reap, replace, keep serving.
func TestFleetSurvivesSandboxSplit(t *testing.T) {
	e, _ := grapheneFleet(t)
	seedDocroot(t, e)
	wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8206", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=2", func(l string) bool {
		return scoreboardField(l, "alive") == 2
	})
	g1, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8206", "/__split"})
	if err != nil {
		t.Fatal(err)
	}
	if code := g1(t); code != 0 {
		t.Fatalf("split request = %d", code)
	}
	waitBoard(t, e, 10*time.Second, "seceded worker replaced", func(l string) bool {
		return scoreboardField(l, "alive") == 2 && scoreboardField(l, "crashes") >= 1
	})
	g2, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8206", "/www-index"})
	if err != nil {
		t.Fatal(err)
	}
	if code := g2(t); code != 0 {
		t.Fatalf("get1 after split = %d", code)
	}
	drainFleet(t, e, wait)
}

// TestFleetFaultMidRequestKill: a FaultPlan kills a worker at its Nth
// host-stream write — mid-response, the worst moment. The affected
// request may fail; the fleet must replace the worker and keep serving.
func TestFleetFaultMidRequestKill(t *testing.T) {
	e, g := grapheneFleet(t)
	seedDocroot(t, e)
	wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8207", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=2", func(l string) bool {
		return scoreboardField(l, "alive") == 2
	})
	procs := g.workerProcs()
	if len(procs) == 0 {
		t.Fatal("no worker picoprocesses")
	}
	procs[0].SetFaultPlan(host.NewFaultPlan().Rule("stream.write", 3, host.FaultKill))
	c := installSink(t, nil)
	lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8207", "/www-index", "0", "400", "4", "timeout_ms=500"})
	if err != nil {
		t.Fatal(err)
	}
	if code := lg(t); code != 0 {
		t.Fatalf("loadgen exit = %d", code)
	}
	waitBoard(t, e, 5*time.Second, "killed worker replaced", func(l string) bool {
		return scoreboardField(l, "crashes") >= 1 && scoreboardField(l, "alive") == 2
	})
	if c.ok.Load() == 0 {
		t.Fatal("fleet stopped serving after mid-request kill")
	}
	drainFleet(t, e, wait)
}

// TestFleetSLOUnderChaos is the acceptance run on all three
// personalities: sustained open-loop load while a chaos driver kills a
// worker every 250 ms. The fleet must restore full strength after every
// kill, client-visible errors must stay within the explicit per-kill
// budget (shed 503s are accounted separately as policy, not failure), and
// the latency SLO is gated through internal/metrics histograms.
func TestFleetSLOUnderChaos(t *testing.T) {
	const (
		nworkers   = 4
		perWorker  = 4 // dispatch credits per worker
		chaosEvery = 250 * time.Millisecond
		runMS      = 1500
	)
	for _, e := range allFleetEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			seedDocroot(t, e)
			reg := metrics.NewRegistry()
			c := installSink(t, reg)
			wait, killOne, err := e.startMaster(fleetArgs("127.0.0.1:8208", nworkers,
				"cap="+strconv.Itoa(perWorker), "queue=128", "shed_ms=300"))
			if err != nil {
				t.Fatal(err)
			}
			waitBoard(t, e, 5*time.Second, "fleet up", func(l string) bool {
				return scoreboardField(l, "alive") == nworkers
			})

			// Chaos: one worker killed every 250 ms for the duration.
			chaosStop := make(chan struct{})
			chaosDone := make(chan int)
			go func() {
				kills := 0
				tick := time.NewTicker(chaosEvery)
				defer tick.Stop()
				for {
					select {
					case <-chaosStop:
						chaosDone <- kills
						return
					case <-tick.C:
						if killOne() {
							kills++
						}
					}
				}
			}()

			lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8208", "/www-index",
				"400", strconv.Itoa(runMS), "8", "timeout_ms=1000"})
			if err != nil {
				t.Fatal(err)
			}
			code := lg(t)
			close(chaosStop)
			kills := <-chaosDone
			if code != 0 {
				t.Fatalf("loadgen exit = %d", code)
			}
			if kills == 0 {
				t.Fatal("chaos injected no kills")
			}

			// Serving continuity: the fleet is back at full strength and the
			// master has reaped every chaos kill. (The final kill can land
			// right at the window's edge, so the reap count is part of the
			// wait, not a snapshot assertion.)
			waitBoard(t, e, 10*time.Second, "fleet restored", func(l string) bool {
				return scoreboardField(l, "alive") == nworkers &&
					scoreboardField(l, "crashes") >= kills
			})

			ok, shed, errs := c.ok.Load(), c.shed.Load(), c.errs.Load()
			// Error budget: each kill can strand at most the victim's
			// in-flight credits plus a connection mid-pass and one racing
			// dispatch. Shed 503s are intentionally NOT in this budget.
			budget := int64(kills * (perWorker + 2))
			if errs > budget {
				t.Fatalf("error budget exceeded: %d errors > %d (kills=%d); ok=%d shed=%d",
					errs, budget, kills, ok, shed)
			}
			if total := ok + shed + errs; ok < total/2 {
				t.Fatalf("fleet served under half the offered load: ok=%d shed=%d err=%d", ok, shed, errs)
			}

			// Latency SLO via the metrics registry: the whole tail of
			// successful requests must beat the client timeout — i.e.
			// chaos never wedged serving long enough to stall the fleet.
			snap := reg.Histogram("fleet.ok").Snapshot()
			const timeoutNS = int64(1000) * 1e6
			if snap.P99 >= timeoutNS || snap.P999 > snap.Max || snap.P50 > snap.P99 {
				t.Fatalf("latency SLO violated: p50=%d p99=%d p999=%d max=%d",
					snap.P50, snap.P99, snap.P999, snap.Max)
			}
			drainFleet(t, e, wait)
		})
	}
}

// TestFleetLoadgenSurvivesPeerClose: a request written to a connection the far
// side has already closed (a worker killed between the pass and the
// client's write) is one "err" sample. It used to be a fatal SIGPIPE: the
// generator's process died under its threads, which then span forever on a
// clock that only returned errors — the test that launched it hung, and
// the samples it kept emitting landed in every later test's sink.
func TestFleetLoadgenSurvivesPeerClose(t *testing.T) {
	e, g := grapheneFleet(t)
	slamDoor := func(p api.OS, argv []string) int {
		lfd, err := p.Listen("127.0.0.1:8213")
		if err != nil {
			return 1
		}
		for {
			conn, err := p.Accept(lfd)
			if err != nil {
				return 0
			}
			_ = p.Close(conn)
		}
	}
	if err := g.rt.RegisterProgram("/bin/slamdoor", slamDoor); err != nil {
		t.Fatal(err)
	}
	if _, err := e.launch("/bin/slamdoor", []string{"slamdoor"}); err != nil {
		t.Fatal(err)
	}
	c := installSink(t, nil)
	for c.errs.Load() == 0 { // until the listener is up and slamming
		lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8213", "/x", "0", "100", "2"})
		if err != nil {
			t.Fatal(err)
		}
		if code := lg(t); code != 0 {
			t.Fatalf("loadgen exit = %d", code)
		}
	}
	if c.ok.Load() != 0 || c.shed.Load() != 0 {
		t.Fatalf("closed connections classified ok=%d shed=%d", c.ok.Load(), c.shed.Load())
	}
}
