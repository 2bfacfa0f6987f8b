package apps

import (
	"math"
	"strconv"
	"strings"

	"graphene/internal/api"
	"graphene/internal/host"
)

// fleetCore is the fleet supervisor's whole state machine. Every event the
// master observes — a connection to place, a failed pass, status bytes, a
// spawn completing or failing, a child exiting, a kill coming due, the
// maintenance tick, drain, the scoreboard publish — is one handler here,
// and the handlers are the only code that writes a fleetSlot or fleetCore
// field. The live master (fleet.go) keeps one thread per blocking syscall
// and does lock → one handler → unlock → the I/O it returned; the simulator
// (fleet_sim_test.go) calls the identical handlers single-threaded on a
// virtual clock, so an ordering the shell can produce is one the simulator
// can replay at exact timestamps. The core takes no lock and reads no
// clock: the shell guards it with the master mutex and passes the time in.
//
// Two ordering rules live in the handlers because the shell's threads
// cannot enforce them: credit before pass (place, passFailed) and exit may
// precede spawned (exited, spawned).

// xorshift is the seeded RNG behind power-of-two-choices sampling. A
// local generator (not math/rand) so the dispatch decision sequence is
// part of the supervisor's deterministic surface.
type xorshift struct{ s uint64 }

func newXorshift(seed int64) xorshift {
	if seed == 0 {
		seed = 1 // xorshift has an absorbing zero state
	}
	return xorshift{s: uint64(seed)}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// fleetSlot is one worker position in the fleet.
type fleetSlot struct {
	id  int
	pid int

	alive     bool
	spawning  bool // a spawn action is out; spawned/spawnFailed clears it
	hasExited bool // a worker of this slot has exited before
	dispatchW int  // master's write end of the dispatch pipe
	statusR   int  // master's read end of the status pipe

	// passing counts the connections placed on this slot whose pass has
	// not ended (passed, passFailed). While it is non-zero a departed
	// worker's dispatch pipe is held in heldW rather than handed back to be
	// closed: a pass may still be writing to it, and a closed descriptor
	// number can come back as a respawn's pipe, which would hand the
	// connection to the wrong worker. The last pass to end releases them.
	passing int
	heldW   []int

	inflight       int
	startedUS      int64
	lastProgressUS int64

	quarantined     bool
	quarantinedAtUS int64
	nextKillUS      int64 // killSentUS once this worker's kill went out

	// retiring marks a worker draining toward a scale-down SIGTERM: no
	// new dispatch, terminated once its in-flight requests complete.
	retiring bool
	// terminating marks a worker whose SIGTERM killDue let out: its exit is
	// planned even if a scale-up wants the slot back before the reap.
	terminating bool

	fastCrashes    int
	breakerOpen    bool
	breakerUntilUS int64
	probing        bool
	nextSpawnUS    int64
	// ready says this worker has reported 'r': it is past its start-up,
	// where a poisoned docroot makes it exit.
	ready bool
}

// killSentUS is a slot's nextKillUS once its kill went out: a kill is
// sent once, and only a new quarantine or retirement schedules another.
const killSentUS = math.MaxInt64

type killReq struct {
	pid  int
	sig  api.Signal
	slot *fleetSlot
}

// fleetEvent is one scaler/handover decision in the core's flight log.
type fleetEvent struct {
	atUS int64
	what string
}

// coreActions is what one maintenance tick asks the shell to do.
type coreActions struct {
	spawn []*fleetSlot
	kill  []killReq
}

// placement is one reserved dispatch credit: the slot it was taken on, the
// worker incarnation (so a credit outliving its worker is not returned to
// the replacement), and the dispatch pipe to pass the connection down,
// which stays open until the pass ends (fleetSlot.passing).
type placement struct {
	slot *fleetSlot
	pid  int
	fd   int
}

// dispatchNext is what the dispatcher does with a connection next.
type dispatchNext int

const (
	dispatchPass    dispatchNext = iota // pass it down placement.fd
	dispatchRetry                       // place it again now
	dispatchBackoff                     // place it again after a short sleep
	dispatchShed                        // answer ERR 503 and close it
)

type fleetCore struct {
	cfg   fleetConfig
	slots []*fleetSlot
	rng   xorshift

	// target is the scaler's current desired worker count: slots with
	// id < target are kept alive, slots at or above it drain and retire.
	target   int
	draining bool
	gen      int // scoreboard generation

	spawns     int
	respawns   int
	crashes    int
	dispatched int
	completed  int
	shed       int
	passErr    int
	scaleUps   int
	scaleDowns int

	// creditUnderflow counts 'd' bytes that found no credit to return. The
	// credit-before-pass rule makes that unreachable; the simulator asserts
	// it stays 0.
	creditUnderflow int

	// earlyExits holds reaped PIDs no slot owned at reap time, at most one
	// per spawn in flight; spawned consumes them.
	earlyExits map[int]bool

	scaleShedMark int   // shed count already attributed to a scaler look
	idleSinceUS   int64 // when the fleet last went fully idle
	lastUpUS      int64
	lastDownUS    int64

	events  []fleetEvent
	eligBuf []*fleetSlot

	// fault evaluates a named fault point, returning the host FaultAction
	// code (0 = none). The live shell routes it through api.FaultPointer;
	// the simulation evaluates a host.FaultPlan directly. Nil = no plan.
	fault func(point string) int
}

func newFleetCore(cfg fleetConfig, startUS int64, fault func(point string) int) *fleetCore {
	c := &fleetCore{
		cfg:         cfg,
		rng:         newXorshift(cfg.seed),
		target:      cfg.nworkers,
		idleSinceUS: startUS,
		fault:       fault,
	}
	// All slot records exist up front (identity = position): the scaler
	// moves the target prefix, it never reshapes the slice, so slot
	// pointers held by dispatch/status threads stay valid across scaling.
	c.earlyExits = map[int]bool{}
	for i := 0; i < cfg.maxWorkers; i++ {
		c.slots = append(c.slots, &fleetSlot{id: i, dispatchW: -1, statusR: -1})
	}
	return c
}

func (c *fleetCore) faultAt(point string) host.FaultAction {
	if c.fault == nil {
		return 0
	}
	return host.FaultAction(c.fault(point))
}

func (c *fleetCore) event(now int64, what string) {
	c.events = append(c.events, fleetEvent{atUS: now, what: what})
}

// eventLog renders the decision log ("t=<us> <what>" per entry) — the
// determinism gate compares two runs' logs verbatim.
func (c *fleetCore) eventLog() []string {
	out := make([]string, 0, len(c.events))
	for _, e := range c.events {
		out = append(out, "t="+strconv.FormatInt(e.atUS, 10)+" "+e.what)
	}
	return out
}

// eligible reports whether s can take another connection. A half-open
// probe worker is excluded: the probe tests whether the process survives
// minHealthyUS, so it needs no traffic, and routing real requests into a
// likely-still-crashing worker converts breaker probes into client errors.
func (s *fleetSlot) eligible(cap int) bool {
	return s.alive && !s.quarantined && !s.breakerOpen && !s.retiring && !s.probing &&
		s.inflight < cap
}

// pick chooses a worker by power-of-two-choices over dispatch credits:
// sample two distinct eligible workers, take the less loaded (ties to the
// lower id). O(1) sampling beats a least-loaded full scan at 64+ workers
// while keeping max load within O(log log n) of optimal; with ≤2 eligible
// workers it degenerates to the exact least-loaded choice.
func (c *fleetCore) pick() *fleetSlot {
	elig := c.eligBuf[:0]
	for _, s := range c.slots {
		if s.eligible(c.cfg.perWorkerCap) {
			elig = append(elig, s)
		}
	}
	c.eligBuf = elig // keep the grown capacity
	n := len(elig)
	switch n {
	case 0:
		return nil
	case 1:
		return elig[0]
	case 2:
		return lessLoaded(elig[0], elig[1])
	}
	i := c.rng.intn(n)
	j := c.rng.intn(n - 1)
	if j >= i {
		j++
	}
	return lessLoaded(elig[i], elig[j])
}

func lessLoaded(a, b *fleetSlot) *fleetSlot {
	if b.inflight < a.inflight || (b.inflight == a.inflight && b.id < a.id) {
		return b
	}
	return a
}

// place decides one queued connection: shed it if it has waited past its
// deadline, otherwise pick a worker and reserve the credit in this same
// step. dispatched counts the reservation; passFailed takes it back, so at
// rest it counts successful passes only.
func (c *fleetCore) place(now, arrivalUS int64) (placement, dispatchNext) {
	if now-arrivalUS > c.cfg.shedUS {
		c.shed++
		return placement{}, dispatchShed
	}
	s := c.pick()
	if s == nil {
		return placement{}, dispatchBackoff
	}
	if s.inflight == 0 {
		// The no-progress window of an idle worker starts when it is handed
		// work, not when it last finished some.
		s.lastProgressUS = now
	}
	s.inflight++
	s.passing++
	c.dispatched++
	return placement{slot: s, pid: s.pid, fd: s.dispatchW}, dispatchPass
}

// passed ends a pass that reached its worker. It returns the dispatch
// pipes of departed workers that no pass writes to any more, for the shell
// to close.
func (c *fleetCore) passed(pl placement) []int {
	s := pl.slot
	if s.passing--; s.passing > 0 {
		return nil
	}
	held := s.heldW
	s.heldW = nil
	return held
}

// passFailed returns the credit of a connection that never reached its
// worker. EPIPE/EBADF/ECONNRESET mean the worker died (or seceded) before
// the supervisor noticed: the slot leaves rotation and the connection goes
// to another worker; the reap does the crash bookkeeping. EAGAIN is a
// momentarily full dispatch pipe. Like passed, it returns the dispatch
// pipes the shell may now close.
func (c *fleetCore) passFailed(pl placement, errno api.Errno) (dispatchNext, []int) {
	s := pl.slot
	same := s.pid == pl.pid // else exited already cleared the credit
	c.dispatched--
	if same && s.inflight > 0 {
		s.inflight--
	}
	release := c.passed(pl)
	switch errno {
	case api.EPIPE, api.EBADF, api.ECONNRESET:
		if same {
			s.alive = false
		}
		c.passErr++
		return dispatchRetry, release
	case api.EAGAIN:
		return dispatchBackoff, release
	}
	c.shed++
	return dispatchShed, release
}

// overflow books a connection shed at accept because the queue was full.
func (c *fleetCore) overflow() { c.shed++ }

// status consumes liveness bytes read from worker pid's status pipe: 'r'
// on ready, 'd' per completed request. Progress timestamps feed the wedge
// detector; completions return dispatch credits. False means the slot has
// moved on to another worker and the reader should stop.
func (c *fleetCore) status(s *fleetSlot, pid int, bytes []byte, now int64) bool {
	if s.pid != pid {
		return false
	}
	for _, b := range bytes {
		switch b {
		case 'd':
			if s.inflight > 0 {
				s.inflight--
			} else {
				c.creditUnderflow++
			}
			c.completed++
			s.lastProgressUS = now
		case 'r':
			s.ready = true
			s.lastProgressUS = now
		}
	}
	return true
}

func (c *fleetCore) spawnsInFlight() int {
	n := 0
	for _, s := range c.slots {
		if s.spawning {
			n++
		}
	}
	return n
}

// spawned installs worker pid in s. False means pid was already reaped
// (exit preceded spawned): the death is booked here, once, the slot is
// dead with pid 0, and the caller closes the pipes it still holds.
func (c *fleetCore) spawned(s *fleetSlot, pid, dispatchW, statusR int, now int64) bool {
	// Credits, quarantine and retirement were cleared by the previous
	// worker's onExit; a slot is never spawned before that ran.
	s.spawning = false
	s.pid = pid
	s.alive = true
	s.ready = false
	s.startedUS = now
	s.lastProgressUS = now
	c.spawns++
	if s.hasExited {
		c.respawns++
	}
	early := c.earlyExits[pid]
	delete(c.earlyExits, pid)
	if c.spawnsInFlight() == 0 {
		clear(c.earlyExits) // whatever is left was never a worker
	}
	if early {
		c.onExit(s, now)
		return false
	}
	s.dispatchW, s.statusR = dispatchW, statusR
	return true
}

// spawnFailed backs the slot off after a spawn that produced no worker.
func (c *fleetCore) spawnFailed(s *fleetSlot, now int64) {
	s.spawning = false
	s.nextSpawnUS = now + c.cfg.backoffMax
}

// exited books the reaped child pid and returns the slot's pipe ends for
// the shell to close (-1 = none); a dispatch pipe a pass may still be
// writing to is held until that pass ends. Crash accounting happens
// exactly here, so each death is counted once. A PID no slot owns is
// remembered while a spawn is in flight (it may be that spawn's worker)
// and dropped otherwise.
func (c *fleetCore) exited(pid int, now int64) (dispatchW, statusR int) {
	for _, s := range c.slots {
		if s.pid == pid {
			dispatchW, statusR = s.dispatchW, s.statusR
			s.dispatchW, s.statusR = -1, -1
			if s.passing > 0 && dispatchW >= 0 {
				s.heldW = append(s.heldW, dispatchW)
				dispatchW = -1
			}
			c.onExit(s, now)
			return dispatchW, statusR
		}
	}
	if len(c.earlyExits) < c.spawnsInFlight() {
		c.earlyExits[pid] = true
	}
	return -1, -1
}

// onExit is the crash bookkeeping: respawn backoff per consecutive fast
// crash, breaker trip on a crash loop, and the planned-exit cases (drain,
// retire) that must not count as crashes.
func (c *fleetCore) onExit(s *fleetSlot, now int64) {
	retiring, terminating := s.retiring, s.terminating
	s.alive = false
	s.hasExited = true
	s.pid = 0
	s.inflight = 0
	s.quarantined = false
	s.retiring = false
	s.terminating = false
	if c.draining {
		return
	}
	if retiring && s.id >= c.target || terminating {
		// A scale-down retirement completing, not a crash: the slot stays
		// parked outside the target prefix until the scaler wants it back,
		// and one a scale-up reclaimed after its SIGTERM went out respawns
		// on the next tick, with no backoff.
		c.event(now, "retired slot="+strconv.Itoa(s.id))
		return
	}
	c.crashes++
	if now-s.startedUS < c.cfg.minHealthyUS {
		s.fastCrashes++
	} else {
		s.fastCrashes = 0
	}
	if s.probing || s.fastCrashes >= c.cfg.breakerTrips {
		// Crash-looping: open (or re-open) the breaker. The slot leaves
		// the fleet until a half-open probe survives; the master keeps
		// serving on the healthy subset.
		s.breakerOpen = true
		s.probing = false
		s.breakerUntilUS = now + c.cfg.cooldownUS
	} else {
		backoff := c.cfg.backoffBase << uint(s.fastCrashes)
		if backoff > c.cfg.backoffMax {
			backoff = c.cfg.backoffMax
		}
		s.nextSpawnUS = now + backoff
	}
}

// killDue reports whether a kill the tick or drain scheduled should still
// be sent when the shell gets to it. A SIGTERM it lets out marks the
// worker terminating, so no later scale-up can reclaim it.
func (c *fleetCore) killDue(req killReq) bool {
	s := req.slot
	if !s.alive || s.pid != req.pid {
		return false // the worker already died and was replaced
	}
	if req.sig == api.SIGKILL {
		return s.quarantined // else quarantine lifted before the kill fired
	}
	if !s.retiring && !c.draining {
		return false // a scale-up reclaimed the worker
	}
	s.terminating = true
	return true
}

// inflightTotal sums live dispatch credits in use.
func (c *fleetCore) inflightTotal() int {
	n := 0
	for _, s := range c.slots {
		if s.alive {
			n += s.inflight
		}
	}
	return n
}

func (c *fleetCore) aliveCount() int {
	n := 0
	for _, s := range c.slots {
		if s.alive {
			n++
		}
	}
	return n
}

// beginDrain flips the fleet into drain mode: ticks stop acting and exits
// stop counting as crashes.
func (c *fleetCore) beginDrain() { c.draining = true }

// terminateAll lists a SIGTERM for every live worker, for the end of drain.
func (c *fleetCore) terminateAll() []killReq {
	var out []killReq
	for _, s := range c.slots {
		if s.alive && s.pid > 0 {
			out = append(out, killReq{pid: s.pid, sig: api.SIGTERM, slot: s})
		}
	}
	return out
}

// drained reports that a draining fleet has no worker left to reap.
func (c *fleetCore) drained() bool { return c.draining && c.aliveCount() == 0 }

// scale is the elastic policy, evaluated once per maintenance tick:
//   - up on pressure (queue depth at the accept side, or sheds since the
//     last look), doubling toward max_workers — the zygote cache makes a
//     worker cost <1 ms, so aggressive scale-up is cheap;
//   - down one worker at a time after a sustained fully-idle window,
//     drain-before-retire (the retiring worker finishes its in-flight
//     requests before the SIGTERM goes out).
//
// Both directions are fault points ("fleet.scale.up"/"fleet.scale.down"):
// a Drop rule suppresses the Nth decision, a Kill rule crashes the master
// exactly there — which is how the chaos suite pins handover timing.
func (c *fleetCore) scale(now int64, queueLen int) {
	if c.cfg.maxWorkers <= c.cfg.nworkers {
		return // fixed-size fleet: elastic scaling disabled
	}
	shedDelta := c.shed - c.scaleShedMark
	c.scaleShedMark = c.shed
	busy := queueLen > 0 || shedDelta > 0 || c.inflightTotal() > 0
	if busy {
		c.idleSinceUS = now
	}
	pressure := queueLen >= c.cfg.scaleUpQueue || shedDelta > 0
	if pressure && c.target < c.cfg.maxWorkers && now-c.lastUpUS >= c.cfg.upCooldownUS {
		if c.faultAt("fleet.scale.up") == host.FaultDrop {
			return
		}
		old := c.target
		c.target *= 2
		if c.target > c.cfg.maxWorkers {
			c.target = c.cfg.maxWorkers
		}
		c.lastUpUS = now
		c.scaleUps++
		c.event(now, "up "+strconv.Itoa(old)+"->"+strconv.Itoa(c.target)+
			" q="+strconv.Itoa(queueLen)+" shed="+strconv.Itoa(shedDelta))
		return // never scale both directions in one tick
	}
	if !busy && c.target > c.cfg.nworkers &&
		now-c.idleSinceUS >= c.cfg.idleUS && now-c.lastDownUS >= c.cfg.downCooldownUS {
		if c.faultAt("fleet.scale.down") == host.FaultDrop {
			return
		}
		old := c.target
		c.target--
		c.lastDownUS = now
		c.scaleDowns++
		c.event(now, "down "+strconv.Itoa(old)+"->"+strconv.Itoa(c.target))
	}
}

// tick runs one maintenance pass at virtual or real time now: the scaler,
// then per-slot lifecycle — breaker half-open probes, spawn-due checks
// (only inside the target prefix), retire-on-drained, wedge quarantine,
// and overdue-kill scheduling. Returns the actions for the shell to apply.
func (c *fleetCore) tick(now int64, queueLen int) coreActions {
	var acts coreActions
	if c.draining {
		return acts
	}
	c.scale(now, queueLen)
	for _, s := range c.slots {
		// Breaker cooldown over: half-open, schedule one probe.
		if s.breakerOpen && now >= s.breakerUntilUS {
			s.breakerOpen = false
			s.probing = true
			s.nextSpawnUS = now
		}
		// Probe survived long enough: close the breaker for real. A probe
		// that has not reported ready has not survived anything yet, however
		// slowly it starts: it may still exit, with whatever the breaker's
		// closing would have dispatched to it.
		if s.probing && s.alive && s.ready && now-s.startedUS >= c.cfg.minHealthyUS {
			s.probing = false
			s.fastCrashes = 0
		}
		// Scale-down marks slots beyond the target as retiring (no new
		// dispatch); a scale-up before the SIGTERM goes out reclaims the
		// still-live worker instead of paying for a fresh spawn.
		if s.alive && !s.retiring && s.id >= c.target {
			s.retiring = true
			s.nextKillUS = now // drained check below may fire immediately
		} else if s.retiring && !s.terminating && s.id < c.target {
			s.retiring = false
		}
		// Spawn-due: dead slot inside the target prefix, backoff elapsed,
		// the previous worker reaped and no spawn already out.
		if s.id < c.target && !s.alive && !s.breakerOpen && s.pid == 0 && !s.spawning &&
			now >= s.nextSpawnUS {
			s.spawning = true
			acts.spawn = append(acts.spawn, s)
		}
		// Retiring worker fully drained: terminate it.
		if s.retiring && s.alive && s.inflight == 0 && now >= s.nextKillUS {
			s.nextKillUS = killSentUS
			acts.kill = append(acts.kill, killReq{pid: s.pid, sig: api.SIGTERM, slot: s})
		}
		// Wedge detection: requests held without progress.
		if s.alive && !s.quarantined && s.inflight > 0 && now-s.lastProgressUS > c.cfg.wedgeUS {
			s.quarantined = true
			s.quarantinedAtUS = now
			s.nextKillUS = now + c.cfg.killGraceUS
		}
		// Quarantine exit: progress resumed and credits returned (a slow
		// request finished) — rejoin without a kill.
		if s.quarantined && s.alive && s.inflight == 0 && now-s.lastProgressUS < c.cfg.wedgeUS {
			s.quarantined = false
		}
		// Overdue quarantined worker: kill it.
		if s.quarantined && s.alive && now >= s.nextKillUS {
			s.nextKillUS = killSentUS
			acts.kill = append(acts.kill, killReq{pid: s.pid, sig: api.SIGKILL, slot: s})
		}
	}
	return acts
}

// scoreboard renders the next generation of the published fleet state, a
// single "key=value ..." line that tests, internal/bench and benchmark/
// parse by key. respawns counts spawns into a slot whose earlier worker
// exited; epoch and takeovers are the master's takeover lineage.
func (c *fleetCore) scoreboard(epoch int64, takeovers int) string {
	c.gen++
	var alive, healthy, quarantined, breaker, draining int64
	var pids []string
	for _, s := range c.slots {
		if s.alive {
			alive++
			pids = append(pids, strconv.Itoa(s.pid))
			if !s.quarantined && !s.breakerOpen {
				healthy++
			}
		}
		if s.quarantined {
			quarantined++
		}
		if s.breakerOpen {
			breaker++
		}
	}
	if c.draining {
		draining = 1
	}
	fields := []struct {
		key string
		v   int64
	}{
		{"gen", int64(c.gen)}, {"draining", draining}, {"workers", int64(c.cfg.nworkers)},
		{"alive", alive}, {"healthy", healthy}, {"quarantined", quarantined},
		{"breaker", breaker}, {"spawns", int64(c.spawns)}, {"respawns", int64(c.respawns)},
		{"crashes", int64(c.crashes)}, {"dispatched", int64(c.dispatched)},
		{"completed", int64(c.completed)}, {"shed", int64(c.shed)}, {"passerr", int64(c.passErr)},
		{"target", int64(c.target)}, {"scaleups", int64(c.scaleUps)},
		{"scaledowns", int64(c.scaleDowns)}, {"epoch", epoch}, {"takeovers", int64(takeovers)},
	}
	var line strings.Builder
	for _, f := range fields {
		line.WriteString(f.key + "=" + strconv.FormatInt(f.v, 10) + " ")
	}
	line.WriteString("pids=" + strings.Join(pids, ",") + "\n")
	return line.String()
}
