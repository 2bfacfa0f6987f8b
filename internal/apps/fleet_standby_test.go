package apps

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"graphene/internal/host"
)

// Live tests for the elastic scaler and the hot-standby master, on the
// Graphene personality (the fault plane that kills a master at a named
// point is host-level, so only picoprocesses can run the kill scenario).
// Timing *policy* is pinned by the virtual-clock sim (fleet_sim_test.go);
// these tests pin the wiring: real spawns, real listener handover, a real
// election round, real scoreboard adoption.

// TestFleetElasticScalesUpAndDown: sustained closed-loop pressure against
// a deliberately tiny fleet (1 worker, 1 credit) must push the scaler to
// its ceiling; when the load stops, the idle window walks it back down to
// the floor with every retirement a planned exit, not a crash.
func TestFleetElasticScalesUpAndDown(t *testing.T) {
	e, _ := grapheneFleet(t)
	seedDocroot(t, e)
	wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8210", 1,
		"cap=1", "max=4", "scale_up_queue=4", "up_cooldown_ms=30",
		"idle_ms=150", "down_cooldown_ms=30", "shed_ms=600"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=1", func(l string) bool {
		return scoreboardField(l, "alive") == 1
	})
	c := installSink(t, nil)
	lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8210", "/www-index",
		"0", "600", "8", "timeout_ms=1000"})
	if err != nil {
		t.Fatal(err)
	}
	// Under pressure the target doubles to the ceiling and the fleet
	// actually reaches it.
	board := waitBoard(t, e, 5*time.Second, "scaled to max", func(l string) bool {
		return scoreboardField(l, "target") == 4 && scoreboardField(l, "alive") == 4
	})
	if ups := scoreboardField(board, "scaleups"); ups < 2 {
		t.Fatalf("scaleups=%d, want >= 2 (1->2->4)", ups)
	}
	if code := lg(t); code != 0 {
		t.Fatalf("loadgen exit = %d", code)
	}
	if c.ok.Load() == 0 {
		t.Fatal("no successful requests under scale-up")
	}
	// Load gone: the fleet drains back to the floor, one worker at a time.
	board = waitBoard(t, e, 10*time.Second, "scaled back down", func(l string) bool {
		return scoreboardField(l, "target") == 1 && scoreboardField(l, "alive") == 1
	})
	if downs := scoreboardField(board, "scaledowns"); downs != 3 {
		t.Fatalf("scaledowns=%d, want 3 (4->3->2->1)", downs)
	}
	if crashes := scoreboardField(board, "crashes"); crashes != 0 {
		t.Fatalf("retirements counted as crashes: %d", crashes)
	}
	drainFleet(t, e, wait)
}

// TestFleetStandbyTakeoverUnderLoad is the master-kill chaos scenario: a
// FaultPlan kills the primary at its Nth maintenance tick, mid-load. The
// hot standby must detect the death (watch pipe EOF), run one election
// round, adopt the co-held listen socket and the rename-swapped
// scoreboard, respawn the fleet, and resume serving — all while the load
// generator keeps offering traffic.
func TestFleetStandbyTakeoverUnderLoad(t *testing.T) {
	e, g := grapheneFleet(t)
	seedDocroot(t, e)
	const nworkers = 2
	_, _, err := e.startMaster(fleetArgs("127.0.0.1:8211", nworkers,
		"standby=1", "cap=4", "shed_ms=400"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "primary fleet up", func(l string) bool {
		return scoreboardField(l, "alive") == nworkers && scoreboardField(l, "takeovers") == 0
	})
	// Kill the primary at its 10th maintenance tick from now (~50 ms in,
	// mid-load): the fault point makes the kill instant deterministic
	// relative to the supervisor's own schedule.
	g.masterProc.SetFaultPlan(host.NewFaultPlan().Rule("fleet.master.kill", 10, host.FaultKill))

	c := installSink(t, nil)
	lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8211", "/www-index",
		"0", "1200", "4", "timeout_ms=1000"})
	if err != nil {
		t.Fatal(err)
	}
	// The standby's scoreboard: takeovers=1, a non-zero election epoch,
	// and a fully respawned fleet.
	board := waitBoard(t, e, 10*time.Second, "standby took over", func(l string) bool {
		return scoreboardField(l, "takeovers") == 1 && scoreboardField(l, "alive") == nworkers
	})
	if epoch := scoreboardField(board, "epoch"); epoch <= 0 {
		t.Fatalf("takeover published no election epoch: %s", board)
	}
	if !g.masterProc.Dead() {
		t.Fatal("fault plan did not kill the primary")
	}
	if code := lg(t); code != 0 {
		t.Fatalf("loadgen exit = %d", code)
	}
	// Continuity: the fleet served real traffic both before and after the
	// kill. The handover window can strand the primary's in-flight
	// requests (bounded by its credits plus the queue); it must not
	// swallow the run.
	ok, errs := c.ok.Load(), c.errs.Load()
	if ok == 0 {
		t.Fatal("no successful requests across the takeover")
	}
	if budget := int64(nworkers*4 + 16); errs > budget {
		t.Fatalf("takeover error budget exceeded: %d > %d (ok=%d)", errs, budget, ok)
	}
	// The promoted master serves new connections.
	g1, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8211", "/www-index"})
	if err != nil {
		t.Fatal(err)
	}
	if code := g1(t); code != 0 {
		t.Fatalf("get1 against promoted master = %d", code)
	}
	// Shut the promoted master down cleanly via the stop file; its own
	// chained standby got 'q' and must not fire a second takeover.
	if err := e.seed(fleetSB+".stop", nil); err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 10*time.Second, "promoted master drained", func(l string) bool {
		return scoreboardField(l, "draining") == 1 && scoreboardField(l, "alive") == 0
	})
	time.Sleep(300 * time.Millisecond) // give a buggy chained standby time to misfire
	if data, err := e.read(fleetSB); err == nil {
		if n := scoreboardField(string(data), "takeovers"); n != 1 {
			t.Fatalf("chained standby fired a spurious takeover: takeovers=%d", n)
		}
	}
}

// TestFleetTakeoverWithinElectionWindow pins the detection-to-serving
// budget: from the instant the primary dies to the standby's first
// successful response must fit inside 500 ms — the election and the
// respawn cost — the paper-level claim that a
// hot standby makes master death a blip, not an outage.
func TestFleetTakeoverWithinElectionWindow(t *testing.T) {
	e, g := grapheneFleet(t)
	seedDocroot(t, e)
	_, _, err := e.startMaster(fleetArgs("127.0.0.1:8212", 2,
		"standby=1"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "fleet up", func(l string) bool {
		return scoreboardField(l, "alive") == 2
	})
	// Kill the primary directly at the host — the hard variant, no fault
	// plan, no cooperation.
	killedAt := time.Now()
	g.masterProc.Exit(137)
	// First successful response from the promoted master.
	var servedAt time.Time
	for {
		g1, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8212", "/www-index"})
		if err != nil {
			t.Fatal(err)
		}
		if g1(t) == 0 {
			servedAt = time.Now()
			break
		}
		if time.Since(killedAt) > 5*time.Second {
			t.Fatal("promoted master never served")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Budget: watch pipe EOF detection is immediate (pipe close), the
	// election is one broadcast claim read back, spawning 2 workers off
	// the zygote cache is ~1 ms each; 500 ms is the acceptance ceiling
	// with generous scheduler slack.
	const budget = 500 * time.Millisecond
	gap := servedAt.Sub(killedAt)
	if gap > budget {
		t.Fatalf("takeover gap %v exceeds %v", gap, budget)
	}
	t.Logf("takeover gap %v (budget %v)", gap, budget)
	board := waitBoard(t, e, 5*time.Second, "takeover recorded", func(l string) bool {
		return scoreboardField(l, "takeovers") == 1
	})
	_ = board
	// Cleanup: stop the promoted master.
	if err := e.seed(fleetSB+".stop", nil); err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 10*time.Second, "drained", func(l string) bool {
		return scoreboardField(l, "draining") == 1 && scoreboardField(l, "alive") == 0
	})
}

// TestFleetStandbyDrainOutlivesHeartbeat: a planned drain tells the standby
// 'q', the standby exits at once, and the drain itself runs on for the
// whole drain_ms (a wedged worker holds its request). The master must
// finish the drain and publish the final scoreboard as the fleet's last
// word, with no standby left to take over.
func TestFleetStandbyDrainOutlivesHeartbeat(t *testing.T) {
	e, _ := grapheneFleet(t)
	seedDocroot(t, e)
	wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8214", 1,
		"standby=1", "wedge_ms=10000", "drain_ms=300"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=1", func(l string) bool {
		return scoreboardField(l, "alive") == 1
	})
	if _, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8214", "/__wedge"}); err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "wedge request placed", func(l string) bool {
		return scoreboardField(l, "dispatched") == 1
	})
	drainFleet(t, e, wait)
	waitBoard(t, e, 2*time.Second, "final scoreboard", func(l string) bool {
		return scoreboardField(l, "draining") == 1 && scoreboardField(l, "alive") == 0
	})
}

// TestFleetListenerLossDrainsWithoutTakeover: a live master whose accept
// loop ends on an error — its listening descriptor closed under it — stops
// as a planned drain. Its standby hears 'q' and exits, so the fleet
// drains once and nobody takes over from a master that never died.
func TestFleetListenerLossDrainsWithoutTakeover(t *testing.T) {
	e, g := grapheneFleet(t)
	seedDocroot(t, e)
	const addr = "127.0.0.1:8215"
	wait, _, err := e.startMaster(fleetArgs(addr, 1, "standby=1", "drain_ms=300"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=1", func(l string) bool {
		return scoreboardField(l, "alive") == 1
	})
	lfd := -1
	for fd := 0; fd < 16 && lfd < 0; fd++ {
		if st, err := g.master.Fstat(fd); err == nil && st.Name == "tcp.srv:"+addr {
			lfd = fd
		}
	}
	if lfd < 0 {
		t.Fatal("the master holds no listening descriptor")
	}
	if err := g.master.Close(lfd); err != nil {
		t.Fatal(err)
	}
	// The accept already parked on the socket still returns the next
	// connection, as on Linux; the loop's next accept fails with EBADF.
	g1, err := e.launch("/bin/get1", []string{"get1", addr, "/www-index"})
	if err != nil {
		t.Fatal(err)
	}
	g1(t)
	if code := wait(t); code != 0 {
		t.Fatalf("master exit = %d, want 0 (a drain)", code)
	}
	time.Sleep(300 * time.Millisecond) // give a standby that missed the drain time to take over
	board := waitBoard(t, e, 2*time.Second, "final scoreboard", func(l string) bool {
		return scoreboardField(l, "draining") == 1 && scoreboardField(l, "alive") == 0
	})
	if n := scoreboardField(board, "takeovers"); n != 0 {
		t.Fatalf("a standby took over from a live master: takeovers=%d (%s)", n, board)
	}
}

// TestFleetStandbyInheritsEveryKnob: a standby runs under the primary's
// exact tuning. The handover is the primary's argv verbatim plus the role
// plumbing, so for every key fleetConfigFrom reads, the standby's parsed
// config must equal the primary's — and the table must cover every
// fleetConfig field, so a knob added later cannot be left out of it.
func TestFleetStandbyInheritsEveryKnob(t *testing.T) {
	knobs := []string{
		"queue=7", "cap=3", "shed_ms=41", "wedge_ms=42", "kill_grace_ms=43",
		"min_healthy_ms=45", "breaker=5", "cooldown_ms=46", "backoff_ms=47", "backoff_max_ms=48",
		"max=9", "scale_up_queue=6", "up_cooldown_ms=49", "idle_ms=50", "down_cooldown_ms=51",
		"seed=99", "standby=1", "run_ms=53", "sb=/elsewhere", "drain_ms=54",
	}
	plumbing := map[string]bool{"knobs": true, "role": true, "watchFD": true, "ctlFD": true,
		"takeovers": true, "maxFDHint": true}
	base := []string{"httpd-fleet", "10.0.0.1:80", "3", "/docroot"}
	defaults, _ := fleetConfigFrom([]string{"httpd-fleet", "", "4", ""})
	fields := func(cfg fleetConfig) map[string]string {
		out := map[string]string{}
		v := reflect.ValueOf(cfg)
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; !plumbing[name] {
				out[name] = fmt.Sprint(v.Field(i))
			}
		}
		return out
	}
	defaultFields := fields(defaults)
	covered := map[string]bool{}
	check := func(name string, argv []string) {
		primary, ok := fleetConfigFrom(argv)
		if !ok {
			t.Fatalf("%s: primary argv rejected", name)
		}
		standby, ok := fleetConfigFrom(standbyArgv(primary, 11, 12, 1, 40))
		if !ok || standby.role != "standby" || standby.watchFD != 11 || standby.ctlFD != 12 ||
			standby.takeovers != 1 || standby.maxFDHint != 40 {
			t.Fatalf("%s: standby plumbing wrong: %+v", name, standby)
		}
		// A promoted standby spawns its own: the plumbing is last-wins.
		chained, _ := fleetConfigFrom(standbyArgv(standby, 21, 22, 2, 50))
		if chained.watchFD != 21 || chained.ctlFD != 22 || chained.takeovers != 2 || chained.maxFDHint != 50 {
			t.Fatalf("%s: chained standby plumbing wrong: %+v", name, chained)
		}
		want := fields(primary)
		for _, got := range []map[string]string{fields(standby), fields(chained)} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: standby config diverged:\n got %v\nwant %v", name, got, want)
			}
		}
		changed := false
		for f, v := range want {
			if v != defaultFields[f] {
				covered[f], changed = true, true
			}
		}
		if !changed {
			t.Fatalf("%s: changed nothing fleetConfigFrom reads", name)
		}
	}
	check("positional", base)
	for _, kv := range knobs {
		check(kv, append(append([]string{}, base...), kv))
	}
	check("all", append(append([]string{}, base...), knobs...))
	for f := range defaultFields {
		if !covered[f] {
			t.Errorf("fleetConfig.%s is set by no key in this table", f)
		}
	}
}
