package apps

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
)

// The simulation tests drive fleetCore — the supervisor's whole state
// machine — single-threaded on a virtual clock with simulated workers,
// through the same handlers the live master calls. A simulated hour of
// backoff/cooldown/scaler schedules runs in microseconds of wall clock,
// every timestamp is exact (assertions are equalities, not windows), and
// there is not one real sleep in the file.

const simTickUS = 5000 // matches the live maintenance cadence

// simSpawn is a spawn whose process exists but whose spawned event the
// master has not seen yet.
type simSpawn struct {
	slot    *fleetSlot
	pid     int
	readyUS int64
}

// simWorld is the I/O side of fleetCore, simulated: spawns report after
// spawnLag, poisoned slots crash poisonLagUS after starting (1 ms unless a
// test says otherwise) without reporting ready, the others report ready
// as they are spawned, wedged slots hold dispatched requests without
// progress, and every other worker completes a request serviceUS after
// dispatch.
type simWorld struct {
	t     *testing.T
	nowUS int64
	core  *fleetCore
	cfg   fleetConfig

	poisoned    map[int]bool // slot id -> crash-loop on start
	poisonLagUS int64
	wedged      map[int]bool // slot id -> hold requests, no progress

	serviceUS int64
	spawnLag  func() int64 // spawn-completion latency; nil = same step
	nextPID   int

	live        map[int]bool  // simulated processes currently running
	deaths      map[int]int64 // pid -> death due time
	died        int           // simulated deaths delivered to the core
	pending     []simSpawn
	completions map[int][]int64

	queue []int64 // arrival time per queued connection

	shed       int
	dispatched map[int]int // slot id -> connections placed
	kills      []string    // rendered kill actions, in order
}

func newSimWorld(t *testing.T, cfg fleetConfig) *simWorld {
	w := &simWorld{
		t:           t,
		nowUS:       1_000_000,
		cfg:         cfg,
		poisoned:    map[int]bool{},
		poisonLagUS: 1000,
		wedged:      map[int]bool{},
		serviceUS:   10_000,
		nextPID:     100,
		live:        map[int]bool{},
		deaths:      map[int]int64{},
		completions: map[int][]int64{},
		dispatched:  map[int]int{},
	}
	w.core = newFleetCore(cfg, w.nowUS, nil)
	return w
}

func (w *simWorld) plan(fp *host.FaultPlan) {
	w.core.fault = func(point string) int { return int(fp.Eval(point)) }
}

// offer queues n connection arrivals at the current virtual time.
func (w *simWorld) offer(n int) {
	for i := 0; i < n; i++ {
		w.queue = append(w.queue, w.nowUS)
	}
}

// step runs one maintenance interval: deliver due worker events (exits
// before spawn completions, so a worker that died inside its spawn latency
// is reaped before the master learns its PID), dispatch the backlog, run
// one core tick, apply its actions, advance the clock. The ordering mirrors
// the live master: the dispatcher drains the queue continuously, so by the
// time a maintenance tick reads the queue length only the connections no
// eligible worker could take remain.
func (w *simWorld) step() {
	now := w.nowUS

	var due []int
	for pid, at := range w.deaths {
		if now >= at {
			due = append(due, pid)
		}
	}
	sort.Ints(due)
	for _, pid := range due {
		delete(w.deaths, pid)
		delete(w.live, pid)
		delete(w.completions, pid)
		w.died++
		w.core.exited(pid, now)
	}
	w.deliverSpawns(now)
	for _, s := range w.core.slots {
		var remain []int64
		for _, at := range w.completions[s.pid] {
			if now >= at {
				w.core.status(s, s.pid, []byte{'d'}, now)
			} else {
				remain = append(remain, at)
			}
		}
		w.completions[s.pid] = remain
	}
	var still []int64
	for _, arrival := range w.queue {
		pl, next := w.core.place(now, arrival)
		switch next {
		case dispatchShed:
			w.shed++
		case dispatchBackoff:
			still = append(still, arrival)
		case dispatchPass:
			w.dispatched[pl.slot.id]++
			w.core.passed(pl) // the simulated pass is instant
			switch {
			case w.wedged[pl.slot.id]:
			case w.serviceUS == 0:
				// The fastest worker there is: its 'd' is back before the
				// dispatcher thread has done anything else.
				w.core.status(pl.slot, pl.pid, []byte{'d'}, now)
			default:
				w.completions[pl.pid] = append(w.completions[pl.pid], now+w.serviceUS)
			}
		}
	}
	w.queue = still

	acts := w.core.tick(now, len(w.queue))
	for _, s := range acts.spawn {
		sp := simSpawn{slot: s, pid: w.nextPID, readyUS: now}
		w.nextPID++
		if w.spawnLag != nil {
			sp.readyUS += w.spawnLag()
		}
		w.live[sp.pid] = true
		if w.poisoned[s.id] {
			w.deaths[sp.pid] = now + w.poisonLagUS
		}
		w.pending = append(w.pending, sp)
	}
	w.deliverSpawns(now)
	for _, req := range acts.kill {
		if !w.core.killDue(req) {
			continue
		}
		w.kills = append(w.kills, "t="+strconv.FormatInt(now, 10)+" kill pid="+strconv.Itoa(req.pid)+
			" slot="+strconv.Itoa(req.slot.id)+" sig="+strconv.Itoa(int(req.sig)))
		w.deaths[req.pid] = now // lands by the next step
	}
	w.check()
	w.nowUS += simTickUS
}

// deliverSpawns reports every pending spawn whose latency has elapsed.
func (w *simWorld) deliverSpawns(now int64) {
	var waiting []simSpawn
	for _, sp := range w.pending {
		if now >= sp.readyUS {
			if w.core.spawned(sp.slot, sp.pid, -1, -1, now) && !w.poisoned[sp.slot.id] {
				w.core.status(sp.slot, sp.pid, []byte{'r'}, now)
			}
		} else {
			waiting = append(waiting, sp)
		}
	}
	w.pending = waiting
}

// check asserts what must hold after every step, whatever the schedule: a
// slot reported alive has a running process, every death delivered so far
// is booked exactly once as a crash or a retirement, and no completion
// ever found its credit missing.
func (w *simWorld) check() {
	w.t.Helper()
	for _, s := range w.core.slots {
		if s.alive && !w.live[s.pid] {
			w.t.Fatalf("t=%d: slot %d alive with dead pid %d", w.nowUS, s.id, s.pid)
		}
	}
	retired := 0
	for _, e := range w.core.events {
		if strings.HasPrefix(e.what, "retired ") {
			retired++
		}
	}
	unbooked := len(w.core.earlyExits) // reaped, waiting for their spawned event
	if got := w.core.crashes + retired + unbooked; got != w.died {
		w.t.Fatalf("t=%d: %d deaths booked as %d crashes + %d retired + %d early",
			w.nowUS, w.died, w.core.crashes, retired, unbooked)
	}
	if w.core.creditUnderflow != 0 {
		w.t.Fatalf("t=%d: creditUnderflow=%d", w.nowUS, w.core.creditUnderflow)
	}
}

func (w *simWorld) run(steps int) {
	for i := 0; i < steps; i++ {
		w.step()
	}
}

func simConfig(nworkers, max int) fleetConfig {
	return fleetConfig{
		nworkers:       nworkers,
		maxWorkers:     max,
		queueDepth:     256,
		perWorkerCap:   4,
		shedUS:         400_000,
		wedgeUS:        150_000,
		killGraceUS:    100_000,
		minHealthyUS:   150_000,
		breakerTrips:   3,
		cooldownUS:     400_000,
		backoffBase:    10_000,
		backoffMax:     500_000,
		scaleUpQueue:   8,
		upCooldownUS:   50_000,
		idleUS:         500_000,
		downCooldownUS: 200_000,
		seed:           1,
	}
}

// TestSimRespawnBackoffDoubles: consecutive fast crashes must space
// respawns exponentially (base << crashes, capped). The virtual clock makes
// the schedule exact: the test asserts the spawn timestamps' gaps, not a
// fuzzy "took longer than" window.
func TestSimRespawnBackoffDoubles(t *testing.T) {
	cfg := simConfig(1, 1)
	cfg.breakerTrips = 10 // keep the breaker out of this test's way
	w := newSimWorld(t, cfg)
	w.poisoned[0] = true

	var spawnAtUS []int64
	lastPID := 0
	for i := 0; i < 60; i++ {
		w.step()
		s := w.core.slots[0]
		if s.alive && s.pid != lastPID {
			lastPID = s.pid
			spawnAtUS = append(spawnAtUS, s.startedUS)
		}
	}
	if len(spawnAtUS) < 4 {
		t.Fatalf("want >= 4 respawns, got %d (%v)", len(spawnAtUS), spawnAtUS)
	}
	// Gap k is death(k) -> spawn(k+1). Death happens 1 ms after spawn, and
	// the respawn waits backoffBase<<crashes rounded up to the next tick.
	for k := 0; k+1 < len(spawnAtUS) && k < 4; k++ {
		gap := spawnAtUS[k+1] - spawnAtUS[k]
		wantBackoff := cfg.backoffBase << uint(k+1)
		if wantBackoff > cfg.backoffMax {
			wantBackoff = cfg.backoffMax
		}
		// death at spawn+1ms, then backoff, then the next 5 ms tick edge.
		minGap := 1000 + wantBackoff
		maxGap := minGap + 2*simTickUS
		if gap < minGap || gap > maxGap {
			t.Fatalf("respawn gap %d = %dus, want in [%d,%d] (spawns %v)",
				k, gap, minGap, maxGap, spawnAtUS)
		}
	}
}

// TestSimBreakerTripsHalfOpensAndCloses: a crash-looping slot must open
// its breaker after breakerTrips fast crashes, stay down for cooldownUS,
// probe half-open, re-open on a failed probe, and close for good once the
// probe survives minHealthyUS. All on virtual time.
func TestSimBreakerTripsHalfOpensAndCloses(t *testing.T) {
	cfg := simConfig(1, 1)
	w := newSimWorld(t, cfg)
	w.poisoned[0] = true
	s := w.core.slots[0]

	// Crash-loop until the breaker opens.
	steps := 0
	for !s.breakerOpen {
		w.step()
		if steps++; steps > 200 {
			t.Fatal("breaker never opened")
		}
	}
	openedAt := s.breakerUntilUS - cfg.cooldownUS
	if w.core.crashes < cfg.breakerTrips {
		t.Fatalf("breaker opened after %d crashes, want >= %d", w.core.crashes, cfg.breakerTrips)
	}
	crashesAtOpen := w.core.crashes

	// While open: no spawns at all until the half-open probe.
	for w.nowUS < s.breakerUntilUS {
		w.step()
		if s.alive && w.nowUS < s.breakerUntilUS-simTickUS {
			t.Fatalf("spawned during open breaker window at t=%d (until %d)",
				w.nowUS, s.breakerUntilUS)
		}
	}
	// Probe fires and fails (still poisoned): breaker re-opens having paid
	// exactly one extra crash.
	for !s.probing && !s.alive {
		w.step() // until the half-open probe launches
	}
	for s.probing || s.alive {
		w.step() // until the probe dies and the breaker re-opens
	}
	if !s.breakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if w.core.crashes != crashesAtOpen+1 {
		t.Fatalf("failed probe cost %d crashes, want exactly 1", w.core.crashes-crashesAtOpen)
	}
	_ = openedAt

	// Cure the slot; the next probe must survive and close the breaker.
	w.poisoned[0] = false
	for s.breakerOpen || s.probing || !s.alive {
		w.step()
	}
	if s.fastCrashes != 0 {
		t.Fatalf("breaker closed but fastCrashes=%d, want 0", s.fastCrashes)
	}
	// And it stays closed.
	crashes := w.core.crashes
	w.run(100)
	if w.core.crashes != crashes || !s.alive {
		t.Fatalf("healed slot crashed again: crashes %d -> %d", crashes, w.core.crashes)
	}
}

// TestSimProbeTakesNoTraffic: while a half-open probe runs, dispatch must
// route around it — real requests never ride on a canary that is likely
// about to crash.
func TestSimProbeTakesNoTraffic(t *testing.T) {
	cfg := simConfig(2, 2)
	w := newSimWorld(t, cfg)
	w.poisoned[1] = true
	s := w.core.slots[1]

	for !s.breakerOpen {
		w.step()
	}
	// Offer steady load through open, half-open, and failed-probe phases.
	for i := 0; i < 200; i++ {
		w.offer(2)
		w.step()
	}
	if w.dispatched[1] != 0 {
		t.Fatalf("probing/broken slot served %d connections, want 0", w.dispatched[1])
	}
	if w.dispatched[0] == 0 {
		t.Fatal("healthy slot served nothing")
	}
}

// TestSimSlowProbeTakesNoTraffic: a poisoned worker that starts slower
// than minHealthyUS (a loaded host) has not survived its probe when the
// time is up, because it never reported ready: the breaker stays
// half-open, dispatch keeps routing around it, and its crash re-opens the
// breaker.
func TestSimSlowProbeTakesNoTraffic(t *testing.T) {
	cfg := simConfig(2, 2)
	w := newSimWorld(t, cfg)
	w.poisoned[1] = true
	s := w.core.slots[1]

	for !s.breakerOpen {
		w.step()
	}
	w.poisonLagUS = cfg.minHealthyUS + 50_000
	crashes := w.core.crashes
	for i := 0; i < 400; i++ {
		w.offer(2)
		w.step()
		if s.alive && !s.probing {
			t.Fatalf("t=%d: the breaker closed on a probe that never reported ready", w.nowUS)
		}
	}
	if w.dispatched[1] != 0 {
		t.Fatalf("a slow probe of a poisoned slot served %d connections, want 0", w.dispatched[1])
	}
	if n := w.core.crashes - crashes; n < 2 {
		t.Fatalf("%d probes crashed in 2 s of cooldowns, want at least 2", n)
	}
}

// TestSimWedgeQuarantineKillReplace: a worker holding a request without
// progress is quarantined after wedgeUS, killed killGraceUS later, and
// replaced — with every transition at its exact virtual timestamp.
func TestSimWedgeQuarantineKillReplace(t *testing.T) {
	cfg := simConfig(1, 1)
	w := newSimWorld(t, cfg)
	w.wedged[0] = true
	s := w.core.slots[0]

	w.step() // spawn
	if !s.alive {
		t.Fatal("worker did not spawn on the first tick")
	}
	firstPID := s.pid
	w.offer(1)
	w.step() // dispatch: the credit is now held forever
	if s.inflight != 1 {
		t.Fatalf("inflight=%d, want 1", s.inflight)
	}
	dispatchedAt := s.lastProgressUS

	for !s.quarantined {
		w.step()
		if w.nowUS > dispatchedAt+cfg.wedgeUS+3*simTickUS {
			t.Fatal("wedged worker never quarantined")
		}
	}
	quarantinedAt := s.quarantinedAtUS
	if got := quarantinedAt - dispatchedAt; got < cfg.wedgeUS || got > cfg.wedgeUS+2*simTickUS {
		t.Fatalf("quarantined %dus after last progress, want ~%d", got, cfg.wedgeUS)
	}

	// The kill lands killGraceUS later (modulo tick rounding), then the
	// slot respawns. The replacement must not inherit quarantine state.
	for s.pid == firstPID || !s.alive {
		w.step()
		if w.nowUS > quarantinedAt+cfg.killGraceUS+cfg.backoffMax+10*simTickUS {
			t.Fatal("wedged worker never replaced")
		}
	}
	if len(w.kills) == 0 || !strings.Contains(w.kills[0], "sig="+strconv.Itoa(int(api.SIGKILL))) {
		t.Fatalf("expected a SIGKILL kill action, got %v", w.kills)
	}
	if s.quarantined || s.inflight != 0 {
		t.Fatalf("replacement inherited state: quarantined=%v inflight=%d", s.quarantined, s.inflight)
	}
	if w.core.crashes != 1 {
		t.Fatalf("crashes=%d, want exactly 1", w.core.crashes)
	}
}

// TestSimKillSentOnce: a kill goes out once. On one host a signal to a
// live worker is delivered, so over the ticks after a quarantine comes due
// the core asks for exactly one SIGKILL, and after a drained retirement
// exactly one SIGTERM — here with neither worker's exit ever reaped, the
// slowest a death can be. The window after the SIGKILL is 200 ticks (1 s
// of virtual time), longer than any retry interval the core ever had.
func TestSimKillSentOnce(t *testing.T) {
	cfg := simConfig(2, 4)
	w := newSimWorld(t, cfg)
	now := w.nowUS
	for id := 0; id < 3; id++ {
		s := w.core.slots[id]
		s.alive = true
		s.pid = 900 + id
		s.startedUS = now
		s.lastProgressUS = now
	}
	w.core.target = 2
	w.core.slots[0].inflight = 1 // slot 0 wedges; slot 2 is idle past the target

	sent := map[int]int{} // slot id -> kills the shell sent
	sigOf := map[int]api.Signal{}
	killTick := -1
	for tick := 0; killTick < 0 || tick <= killTick+200; tick++ {
		if tick > 1000 {
			t.Fatal("wedged worker never killed")
		}
		for _, req := range w.core.tick(w.nowUS, 0).kill {
			if !w.core.killDue(req) {
				continue
			}
			sent[req.slot.id]++
			sigOf[req.slot.id] = req.sig
			if req.slot.id == 0 && killTick < 0 {
				killTick = tick
			}
		}
		w.nowUS += simTickUS
	}
	if sent[0] != 1 || sigOf[0] != api.SIGKILL {
		t.Fatalf("quarantined slot got %d kills (sig %d), want exactly one SIGKILL", sent[0], sigOf[0])
	}
	if sent[2] != 1 || sigOf[2] != api.SIGTERM {
		t.Fatalf("retired slot got %d kills (sig %d), want exactly one SIGTERM", sent[2], sigOf[2])
	}
	if sent[1] != 0 {
		t.Fatalf("healthy slot got %d kills", sent[1])
	}
}

// TestSimScaleUpOnPressureAndDownOnIdle: queue pressure doubles the
// target toward max_workers under the up-cooldown; a sustained idle
// window walks it back down one worker at a time under the down-cooldown.
func TestSimScaleUpOnPressureAndDownOnIdle(t *testing.T) {
	cfg := simConfig(2, 8)
	w := newSimWorld(t, cfg)
	w.serviceUS = 100_000 // slow workers: 4 credits * 2 workers saturate fast

	// Saturating load: more arrivals per tick than the fleet can finish.
	for i := 0; i < 40; i++ {
		w.offer(12)
		w.step()
	}
	if w.core.target != cfg.maxWorkers {
		t.Fatalf("target=%d under saturation, want %d", w.core.target, cfg.maxWorkers)
	}
	if w.core.aliveCount() != cfg.maxWorkers {
		t.Fatalf("alive=%d after scale-up, want %d", w.core.aliveCount(), cfg.maxWorkers)
	}
	ups := w.core.scaleUps
	if ups != 2 { // 2 -> 4 -> 8
		t.Fatalf("scaleUps=%d, want 2 (2->4->8)", ups)
	}

	// Load stops: the queue drains, completions land, the idle window
	// elapses, and the fleet walks back to nworkers.
	for i := 0; i < 400 && w.core.target > cfg.nworkers; i++ {
		w.step()
	}
	if w.core.target != cfg.nworkers {
		t.Fatalf("target=%d after idle, want %d", w.core.target, cfg.nworkers)
	}
	if w.core.scaleDowns != cfg.maxWorkers-cfg.nworkers {
		t.Fatalf("scaleDowns=%d, want %d", w.core.scaleDowns, cfg.maxWorkers-cfg.nworkers)
	}
	// Every retirement was a planned exit, not a crash.
	if w.core.crashes != 0 {
		t.Fatalf("scale-down retirements counted as crashes: %d", w.core.crashes)
	}
	for i := 0; i < 50; i++ {
		w.step()
	}
	if w.core.aliveCount() != cfg.nworkers {
		t.Fatalf("alive=%d after scale-down, want %d", w.core.aliveCount(), cfg.nworkers)
	}
	// Down-cooldown respected: consecutive "down" events spaced >= downCooldownUS.
	var lastDown int64 = -1 << 62
	for _, e := range w.core.events {
		if strings.HasPrefix(e.what, "down ") {
			if e.atUS-lastDown < cfg.downCooldownUS {
				t.Fatalf("down events %dus apart, want >= %d:\n%s",
					e.atUS-lastDown, cfg.downCooldownUS, strings.Join(w.core.eventLog(), "\n"))
			}
			lastDown = e.atUS
		}
	}
}

// TestSimDrainBeforeRetire: a retiring worker that still holds in-flight
// requests must not be killed until it drains; a scale-up arriving before
// the SIGTERM lands reclaims the live worker instead of respawning.
func TestSimDrainBeforeRetire(t *testing.T) {
	cfg := simConfig(2, 4)
	w := newSimWorld(t, cfg)
	now := w.nowUS

	// Hand-build the state the scaler cannot race into: target back at 2
	// while slot 3 still holds credits (in the live master this is the
	// dispatch-vs-scale-down window).
	for id := 0; id < 4; id++ {
		s := w.core.slots[id]
		s.alive = true
		s.pid = 900 + id
		s.startedUS = now
		s.lastProgressUS = now
	}
	w.core.target = 2
	w.core.slots[3].inflight = 2

	acts := w.core.tick(now, 0)
	if !w.core.slots[3].retiring || !w.core.slots[2].retiring {
		t.Fatal("slots beyond the target not marked retiring")
	}
	// Slot 2 is idle: killed. Slot 3 holds credits: spared.
	killedSlots := map[int]bool{}
	for _, req := range acts.kill {
		if req.sig != api.SIGTERM {
			t.Fatalf("retirement used signal %d, want SIGTERM", req.sig)
		}
		killedSlots[req.slot.id] = true
	}
	if !killedSlots[2] || killedSlots[3] {
		t.Fatalf("kill set %v, want slot 2 only", killedSlots)
	}

	// Credits drain: the next tick retires slot 3, and slot 2, whose
	// SIGTERM went out on the first tick, is not signalled again.
	w.core.slots[3].inflight = 0
	w.nowUS += simTickUS
	acts = w.core.tick(w.nowUS, 0)
	found := false
	for _, req := range acts.kill {
		if req.slot.id == 2 {
			t.Fatal("slot 2's SIGTERM was sent twice")
		}
		if req.slot.id == 3 && req.sig == api.SIGTERM {
			found = true
		}
	}
	if !found {
		t.Fatal("drained retiring slot not terminated")
	}

	// Scale-up before the SIGTERM lands: the slot rejoins alive, no spawn,
	// and the shell drops the SIGTERM the core no longer finds due.
	staleTerm := acts.kill
	w.core.target = 4
	acts = w.core.tick(w.nowUS, 0)
	if w.core.slots[3].retiring {
		t.Fatal("reclaimed slot still marked retiring")
	}
	for _, req := range staleTerm {
		if w.core.killDue(req) {
			t.Fatalf("SIGTERM for reclaimed slot %d still due", req.slot.id)
		}
	}
	for _, s := range acts.spawn {
		if s.id == 3 {
			t.Fatal("reclaimed live slot respawned instead of reused")
		}
	}
	// Retirement completion is not a crash: with the target back at 2, a
	// retiring slot-3 exit is a planned departure.
	w.core.target = 2
	w.core.slots[3].retiring = true
	w.core.exited(w.core.slots[3].pid, w.nowUS)
	if w.core.crashes != 0 {
		t.Fatalf("retirement counted as crash: crashes=%d", w.core.crashes)
	}
}

// TestSimScaleUpAfterSigtermIsNotACrash: once a retiring worker's SIGTERM
// has gone out, a scale-up that moves the target back over its slot before
// the death is reaped does not make that death a crash. The exit is booked
// as the retirement it is, with no fast-crash count and no backoff, and the
// slot, now inside the target, respawns on the next tick.
func TestSimScaleUpAfterSigtermIsNotACrash(t *testing.T) {
	cfg := simConfig(2, 4)
	t0 := int64(1_000_000)
	c := newFleetCore(cfg, t0, nil)
	for _, s := range c.slots {
		s.alive = true
		s.pid = 900 + s.id
		s.startedUS = t0
		s.lastProgressUS = t0
	}
	c.target = 3
	s := c.slots[3]

	// t0: the tick marks slot 3 retiring and, idle, schedules its SIGTERM,
	// which the killer lets out.
	acts := c.tick(t0, 0)
	if !s.retiring || len(acts.kill) != 1 || acts.kill[0].slot != s || acts.kill[0].sig != api.SIGTERM {
		t.Fatalf("t0: retiring=%v kills=%+v, want one SIGTERM for slot 3", s.retiring, acts.kill)
	}
	if !c.killDue(acts.kill[0]) {
		t.Fatal("t0: the SIGTERM for an idle retiring worker is not due")
	}

	// t1: queue pressure scales the fleet back up over slot 3 before the
	// death is reaped.
	t1 := t0 + simTickUS
	acts = c.tick(t1, cfg.scaleUpQueue)
	if c.target != 4 || c.scaleUps != 1 {
		t.Fatalf("t1: target=%d scaleUps=%d, want 4 and 1", c.target, c.scaleUps)
	}
	if len(acts.spawn) != 0 {
		t.Fatalf("t1: %d spawns while every slot is alive", len(acts.spawn))
	}

	// t2: the reap.
	t2 := t1 + simTickUS
	c.exited(903, t2)
	if c.crashes != 0 || s.fastCrashes != 0 {
		t.Fatalf("t2: crashes=%d fastCrashes=%d, want 0 and 0", c.crashes, s.fastCrashes)
	}
	if got := c.eventLog(); got[len(got)-1] != "t="+strconv.FormatInt(t2, 10)+" retired slot=3" {
		t.Fatalf("t2: last event %q, want the retirement", got[len(got)-1])
	}

	// t3: no backoff, so the next tick respawns the slot.
	acts = c.tick(t2+simTickUS, 0)
	if len(acts.spawn) != 1 || acts.spawn[0] != s {
		t.Fatalf("t3: spawns %v, want slot 3 respawned", acts.spawn)
	}
}

// TestSimP2CPlacementProperties is the randomized property test for
// power-of-two-choices placement: under a seeded random arrival schedule,
// no eligible worker starves, credits never go negative, and no worker
// ever exceeds its per-worker cap.
func TestSimP2CPlacementProperties(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337, 99991} {
		cfg := simConfig(16, 16)
		cfg.seed = seed
		w := newSimWorld(t, cfg)
		w.serviceUS = 15_000
		arrivals := newXorshift(seed * 7919)

		for i := 0; i < 500; i++ {
			w.offer(arrivals.intn(24))
			w.step()
			for _, s := range w.core.slots {
				if s.inflight < 0 {
					t.Fatalf("seed %d: slot %d credits went negative", seed, s.id)
				}
				if s.inflight > cfg.perWorkerCap {
					t.Fatalf("seed %d: slot %d at %d credits, cap %d",
						seed, s.id, s.inflight, cfg.perWorkerCap)
				}
			}
		}
		if w.core.dispatched == 0 {
			t.Fatalf("seed %d: nothing dispatched", seed)
		}
		for _, s := range w.core.slots {
			if w.dispatched[s.id] == 0 {
				t.Fatalf("seed %d: worker %d starved (0 of %d dispatches)",
					seed, s.id, w.core.dispatched)
			}
		}
		// Conservation: every accepted connection is exactly one of
		// dispatched or shed.
		if w.core.dispatched+w.shed == 0 {
			t.Fatalf("seed %d: no outcomes recorded", seed)
		}
	}
}

// TestSimP2CBalancesLoad: p2c's whole point — the max/mean load imbalance
// stays small. With 16 workers under steady load, the busiest worker must
// not see more than twice the mean (full-scan least-loaded achieves ~1x;
// random placement would blow past 2x).
func TestSimP2CBalancesLoad(t *testing.T) {
	cfg := simConfig(16, 16)
	w := newSimWorld(t, cfg)
	w.serviceUS = 15_000
	for i := 0; i < 1000; i++ {
		w.offer(8)
		w.step()
	}
	total, max := 0, 0
	for id := 0; id < cfg.nworkers; id++ {
		total += w.dispatched[id]
		if w.dispatched[id] > max {
			max = w.dispatched[id]
		}
	}
	mean := total / cfg.nworkers
	if mean == 0 {
		t.Fatal("no load placed")
	}
	if max > 2*mean {
		t.Fatalf("p2c imbalance: max=%d mean=%d (dispatch %v)", max, mean, w.dispatched)
	}
}

// runScalerScenario executes the canonical elastic-chaos schedule —
// saturate, idle, saturate again — under a fault plan, and returns the
// decision log: scaler events plus the kill sequence.
func runScalerScenario(t *testing.T, seed int64, fp *host.FaultPlan) []string {
	cfg := simConfig(2, 8)
	cfg.seed = seed
	w := newSimWorld(t, cfg)
	w.serviceUS = 80_000
	if fp != nil {
		w.plan(fp)
	}
	for i := 0; i < 30; i++ {
		w.offer(10)
		w.step()
	}
	w.run(250) // drain + idle: scale back down
	for i := 0; i < 30; i++ {
		w.offer(10)
		w.step()
	}
	w.run(100)
	log := append([]string{}, w.core.eventLog()...)
	return append(log, w.kills...)
}

// TestSimScalerDeterminism is the chaos determinism gate extended to
// scaler decisions: the same (FaultPlan, seed) must yield the identical
// scale-up/scale-down/kill event sequence on every run, and the plan must
// actually bite (a Drop rule changes the sequence vs. no plan).
func TestSimScalerDeterminism(t *testing.T) {
	mkPlan := func() *host.FaultPlan {
		return host.NewFaultPlan().
			Rule("fleet.scale.up", 2, host.FaultDrop).
			Rule("fleet.scale.down", 1, host.FaultDrop)
	}
	base := runScalerScenario(t, 42, mkPlan())
	if len(base) == 0 {
		t.Fatal("scenario produced no events")
	}
	for run := 0; run < 3; run++ {
		got := runScalerScenario(t, 42, mkPlan())
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("run %d diverged:\nbase: %v\ngot:  %v", run, base, got)
		}
	}
	unfaulted := runScalerScenario(t, 42, nil)
	if reflect.DeepEqual(base, unfaulted) {
		t.Fatal("fault plan had no effect on the decision sequence")
	}
	// A different dispatch seed must not change the *scaling* decisions'
	// structure being deterministic per seed.
	other := runScalerScenario(t, 43, mkPlan())
	again := runScalerScenario(t, 43, mkPlan())
	if !reflect.DeepEqual(other, again) {
		t.Fatal("seed 43 not reproducible")
	}
}

// TestSimScaleFaultPointsAddressable: the FaultPlan addresses individual
// scaler decisions by ordinal, and Fired() records exactly what fired —
// the contract the chaos suite scripts against.
func TestSimScaleFaultPointsAddressable(t *testing.T) {
	fp := host.NewFaultPlan().Rule("fleet.scale.up", 1, host.FaultDrop)
	cfg := simConfig(2, 8)
	w := newSimWorld(t, cfg)
	w.serviceUS = 80_000
	w.plan(fp)
	for i := 0; i < 6; i++ {
		w.offer(10)
		w.step()
	}
	// First scale-up was dropped: the queue pressure persists, so the
	// scaler retries one up-cooldown later and succeeds on the second hit.
	if w.core.scaleUps == 0 {
		t.Fatal("scaler never recovered from the dropped decision")
	}
	fired := fp.Fired()
	if len(fired) == 0 || !strings.Contains(fired[0], "fleet.scale.up") {
		t.Fatalf("Fired() = %v, want the dropped fleet.scale.up", fired)
	}
	if got := w.core.eventLog(); len(got) == 0 || !strings.HasPrefix(got[0], "t=") {
		t.Fatalf("event log malformed: %v", got)
	}
}

// TestSimDoneRacesDispatch is the credit-before-pass rule: a worker so
// fast that its 'd' byte is read in the very step its connection was
// placed must find the credit already reserved. (When the live dispatcher
// took the credit after PassConnection returned, that 'd' was swallowed,
// the late credit was never returned, and the idle worker was quarantined
// as wedged and killed.) The world's per-step check asserts
// creditUnderflow == 0 throughout.
func TestSimDoneRacesDispatch(t *testing.T) {
	cfg := simConfig(1, 1)
	w := newSimWorld(t, cfg)
	w.serviceUS = 0
	s := w.core.slots[0]
	w.step() // spawn

	// Idle for longer than the wedge window first: being handed work after
	// a quiet spell must not read as "held a request without progress".
	w.run(int(2 * cfg.wedgeUS / simTickUS))
	for i := 0; i < int(3*cfg.wedgeUS/simTickUS); i++ {
		w.offer(1)
		w.step()
		if s.inflight != 0 {
			t.Fatalf("t=%d: inflight=%d after a same-step completion, want 0", w.nowUS, s.inflight)
		}
		if s.quarantined {
			t.Fatalf("t=%d: idle worker quarantined", w.nowUS)
		}
	}
	if w.core.dispatched == 0 || w.core.dispatched != w.core.completed {
		t.Fatalf("dispatched=%d completed=%d", w.core.dispatched, w.core.completed)
	}
	if len(w.kills) != 0 || w.core.crashes != 0 {
		t.Fatalf("healthy worker killed: %v (crashes=%d)", w.kills, w.core.crashes)
	}

	// A slow request held across ticks after a quiet spell: still no
	// quarantine, the window runs from the hand-over.
	w.serviceUS = 3 * simTickUS
	w.run(int(2 * cfg.wedgeUS / simTickUS))
	w.offer(1)
	for i := 0; i < 6; i++ {
		w.step()
		if s.quarantined {
			t.Fatalf("t=%d: worker quarantined %d steps after taking a request", w.nowUS, i)
		}
	}
}

// TestSimPassFailureReturnsCredit: the credit reserved by place comes back
// when the pass fails, dispatched ends up counting successful passes only,
// and a dead pipe takes the slot out of rotation until its reap.
func TestSimPassFailureReturnsCredit(t *testing.T) {
	w := newSimWorld(t, simConfig(2, 2))
	w.step() // spawn both
	now := w.nowUS

	pl, next := w.core.place(now, now)
	if next != dispatchPass || pl.slot.inflight != 1 || w.core.dispatched != 1 {
		t.Fatalf("place: next=%d inflight=%d dispatched=%d", next, pl.slot.inflight, w.core.dispatched)
	}
	if next, _ := w.core.passFailed(pl, api.EAGAIN); next != dispatchBackoff {
		t.Fatalf("EAGAIN -> %d, want backoff", next)
	}
	if pl.slot.inflight != 0 || w.core.dispatched != 0 || !pl.slot.alive {
		t.Fatalf("after EAGAIN: inflight=%d dispatched=%d alive=%v", pl.slot.inflight, w.core.dispatched, pl.slot.alive)
	}

	pl, _ = w.core.place(now, now)
	dead := pl.slot
	if next, _ := w.core.passFailed(pl, api.EPIPE); next != dispatchRetry {
		t.Fatalf("EPIPE -> %d, want retry", next)
	}
	if dead.alive || dead.inflight != 0 || w.core.passErr != 1 || w.core.crashes != 0 {
		t.Fatalf("after EPIPE: alive=%v inflight=%d passerr=%d crashes=%d",
			dead.alive, dead.inflight, w.core.passErr, w.core.crashes)
	}
	if pl, next = w.core.place(now, now); next != dispatchPass || pl.slot == dead {
		t.Fatalf("retry placed on the dead slot (next=%d)", next)
	}
	// The crash is booked at the reap, once, and the slot comes back.
	w.deaths[dead.pid] = now
	w.run(20)
	if w.core.crashes != 1 || !dead.alive {
		t.Fatalf("after reap: crashes=%d alive=%v", w.core.crashes, dead.alive)
	}

	// A credit that outlives its worker is not returned to the replacement.
	stale := pl
	w.deaths[pl.slot.pid] = w.nowUS
	w.run(20)
	before := stale.slot.inflight
	w.core.passFailed(stale, api.EPIPE)
	if !stale.slot.alive || stale.slot.inflight != before {
		t.Fatalf("stale pass failure hit the replacement: alive=%v inflight=%d", stale.slot.alive, stale.slot.inflight)
	}

	// Past its deadline a connection is shed, not placed.
	if _, next := w.core.place(w.nowUS, w.nowUS-w.cfg.shedUS-1); next != dispatchShed || w.core.shed != 1 {
		t.Fatalf("overdue connection: next=%d shed=%d", next, w.core.shed)
	}
}

// simFDs is the master's descriptor table, simulated: open returns the
// lowest free number, as pipe(2) does, so a closed number comes straight
// back.
type simFDs map[int]bool

func (f simFDs) open() int {
	fd := 3
	for f[fd] {
		fd++
	}
	f[fd] = true
	return fd
}

func (f simFDs) close(t *testing.T, fds ...int) {
	t.Helper()
	for _, fd := range fds {
		if fd < 0 {
			continue
		}
		if !f[fd] {
			t.Fatalf("descriptor %d closed twice", fd)
		}
		delete(f, fd)
	}
}

// TestSimPassOutlivesReapAndRespawn is the descriptor-reuse race at exact
// virtual times: the dispatcher places a connection on a worker and drops
// the master lock to pass it down the worker's dispatch pipe; before the
// pass lands the worker dies, is reaped, and its slot respawns with fresh
// pipes. The pipe the pass writes to must stay open until the pass ends —
// closed at the reap, its number would be the respawn's dispatch pipe and
// the connection would reach a worker it was never placed on. The pass
// then ends both ways: failed (EPIPE, the dead worker's pipe) and passed.
func TestSimPassOutlivesReapAndRespawn(t *testing.T) {
	for _, fails := range []bool{true, false} {
		cfg := simConfig(1, 1)
		const t0 = int64(1_000_000)
		c := newFleetCore(cfg, t0, nil)
		fds := simFDs{}
		spawn := func(now int64, pid int) (dispatchW int) {
			acts := c.tick(now, 0)
			if len(acts.spawn) != 1 {
				t.Fatalf("t=%d: %d spawns, want 1", now, len(acts.spawn))
			}
			dispatchW, statusR := fds.open(), fds.open()
			if !c.spawned(acts.spawn[0], pid, dispatchW, statusR, now) {
				t.Fatalf("t=%d: worker %d not installed", now, pid)
			}
			return dispatchW
		}
		w1 := spawn(t0, 100)

		t1 := t0 + simTickUS
		pl, next := c.place(t1, t1)
		if next != dispatchPass || pl.fd != w1 || pl.pid != 100 {
			t.Fatalf("place: next=%d fd=%d pid=%d, want a pass down %d to 100", next, pl.fd, pl.pid, w1)
		}

		// The worker dies 1 ms later, a fast crash: reaped at t2, its slot
		// respawns after 2 × backoffBase, on the first tick at or past it.
		t2 := t1 + 1000
		wfd, sfd := c.exited(100, t2)
		if wfd == pl.fd {
			t.Errorf("the reap handed back dispatch pipe %d while a pass was writing to it", wfd)
		}
		fds.close(t, wfd, sfd)
		t3 := t2 + 2*cfg.backoffBase
		if got := c.slots[0].nextSpawnUS; got != t3 {
			t.Fatalf("respawn due at %d, want %d", got, t3)
		}
		t3 += simTickUS - (t3-t0)%simTickUS // the next maintenance tick
		if acts := c.tick(t3-simTickUS, 0); len(acts.spawn) != 0 {
			t.Fatalf("t=%d: respawned before its backoff ran out", t3-simTickUS)
		}
		w2 := spawn(t3, 101)
		if w2 == pl.fd {
			t.Fatalf("the respawn's dispatch pipe reuses descriptor %d, which the pass placed on the dead worker still writes to", w2)
		}

		// The pass ends: the held pipe comes back, once, and nothing else.
		var release []int
		if fails {
			next, release = c.passFailed(pl, api.EPIPE)
			if next != dispatchRetry {
				t.Fatalf("EPIPE -> %d, want retry", next)
			}
		} else {
			release = c.passed(pl)
		}
		if len(release) != 1 || release[0] != w1 {
			t.Fatalf("pass end (failed=%v) released %v, want [%d]", fails, release, w1)
		}
		fds.close(t, release...)
		if s := c.slots[0]; s.passing != 0 || len(s.heldW) != 0 || s.pid != 101 || s.inflight != 0 {
			t.Fatalf("after the pass: passing=%d held=%v pid=%d inflight=%d", s.passing, s.heldW, s.pid, s.inflight)
		}
		if len(fds) != 2 || !fds[w2] {
			t.Fatalf("open descriptors %v, want the respawn's two", fds)
		}
		// A retry goes down the live worker's pipe.
		if pl, next := c.place(t3, t3); next != dispatchPass || pl.fd != w2 || pl.pid != 101 {
			t.Fatalf("retry: next=%d fd=%d pid=%d, want a pass down %d to 101", next, pl.fd, pl.pid, w2)
		}
	}
}

// TestSimExitBeforeSpawned is the ghost-slot rule: with spawn completions
// lagging (seeded), a poisoned worker is dead and reaped before the master
// has learned its PID. That death must still be booked once, arm backoff
// and trip the breaker after breakerTrips of them, and must never leave a
// slot alive around a corpse — the world's per-step check asserts "alive
// implies a running PID" and "every death booked exactly once" throughout.
func TestSimExitBeforeSpawned(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := simConfig(4, 4)
		cfg.seed = seed
		w := newSimWorld(t, cfg)
		lag := newXorshift(seed)
		w.spawnLag = func() int64 { return int64(lag.intn(3)) * simTickUS }
		w.poisoned[2], w.poisoned[3] = true, true

		early := 0
		for i := 0; i < 400; i++ {
			w.offer(2)
			w.step()
			early += len(w.core.earlyExits)
			if n := len(w.core.earlyExits); n > w.core.spawnsInFlight() {
				t.Fatalf("seed %d: %d early exits held for %d spawns in flight", seed, n, w.core.spawnsInFlight())
			}
		}
		if early == 0 {
			t.Fatalf("seed %d: no exit ever preceded its spawned event", seed)
		}
		for _, id := range []int{2, 3} {
			s := w.core.slots[id]
			if s.alive && !s.probing {
				t.Fatalf("seed %d: poisoned slot %d alive outside a probe", seed, id)
			}
			if s.fastCrashes < cfg.breakerTrips {
				t.Fatalf("seed %d: slot %d fastCrashes=%d, breaker never tripped", seed, id, s.fastCrashes)
			}
			if w.dispatched[id] != 0 {
				t.Fatalf("seed %d: poisoned slot %d served %d connections", seed, id, w.dispatched[id])
			}
		}
		if !w.core.slots[0].alive || !w.core.slots[1].alive || w.dispatched[0] == 0 {
			t.Fatalf("seed %d: healthy half of the fleet not serving", seed)
		}
	}

	// Every death reaped early: the lag always exceeds the 1 ms a poisoned
	// worker lives, and the breaker still opens after exactly breakerTrips.
	cfg := simConfig(1, 1)
	w := newSimWorld(t, cfg)
	w.poisoned[0] = true
	s := w.core.slots[0]
	w.spawnLag = func() int64 { return 2 * simTickUS }
	for i := 0; !s.breakerOpen; i++ {
		w.step()
		if s.alive {
			t.Fatalf("t=%d: slot alive though its worker died before spawned", w.nowUS)
		}
		if i > 400 {
			t.Fatal("breaker never opened")
		}
	}
	if w.core.crashes != cfg.breakerTrips || w.died != cfg.breakerTrips {
		t.Fatalf("breaker opened after %d crashes (%d deaths), want %d", w.core.crashes, w.died, cfg.breakerTrips)
	}
}

// TestSimRespawnsCountReplacementsOnly: the scoreboard's respawns field
// counts spawns into a slot whose earlier worker exited — an elastic
// scale-up into fresh slots is a spawn, not a respawn.
func TestSimRespawnsCountReplacementsOnly(t *testing.T) {
	cfg := simConfig(2, 8)
	w := newSimWorld(t, cfg)
	w.serviceUS = 100_000
	for i := 0; i < 40; i++ {
		w.offer(12)
		w.step()
	}
	if w.core.spawns != cfg.maxWorkers || w.core.respawns != 0 {
		t.Fatalf("after scale-up: spawns=%d respawns=%d, want %d/0", w.core.spawns, w.core.respawns, cfg.maxWorkers)
	}
	w.deaths[w.core.slots[0].pid] = w.nowUS
	w.run(20)
	line := w.core.scoreboard(0, 0)
	if got := scoreboardField(line, "respawns"); got != 1 {
		t.Fatalf("respawns=%d after one replacement, want 1: %s", got, line)
	}
	if got := scoreboardField(line, "spawns"); got != cfg.maxWorkers+1 {
		t.Fatalf("spawns=%d, want %d: %s", got, cfg.maxWorkers+1, line)
	}
}
