package apps

import (
	"strconv"
	"strings"
	"sync"

	"graphene/internal/api"
)

// This file implements /bin/httpd-fleet and /bin/httpd-worker: the
// supervised prefork serving personality. Where /bin/apache is the
// paper's fixed-size §6.3 configuration (a crash silently shrinks the
// fleet), the fleet master is a production-shaped supervisor:
//
//   - workers are spawned (zygote fast path) rather than forked, and the
//     master reap-and-replaces crashed workers, detected through the
//     SIGCHLD/wait machinery and through EPIPE on the dispatch pipe;
//   - respawns run under a budget: exponential backoff per consecutive
//     fast crash, and a per-slot circuit breaker that takes a
//     crash-looping slot out of rotation (degrading to a smaller healthy
//     fleet) instead of fork-storming, with half-open probes to heal;
//   - dispatch is credit-bounded per worker and deadline-aware: a
//     connection that cannot reach a worker before its shed deadline is
//     answered with a fast "ERR 503" instead of queueing unboundedly;
//   - workers report liveness over a status pipe; a worker holding
//     requests without progress is quarantined (no new dispatch) and
//     eventually killed and replaced, which also covers workers wedged
//     behind a network partition;
//   - shutdown drains: stop accepting, flush the queue, wait for
//     in-flight requests, terminate and reap every worker.
//
// The master publishes a scoreboard file (Apache's shared-memory
// scoreboard, as a rename-swapped text file) that tests, chaos drivers,
// and operators read.

// fleetConfig is the master's tuning, argv-overridable via key=value.
type fleetConfig struct {
	addr     api.SockAddr
	nworkers int // minimum (and initial) worker count
	docroot  string

	queueDepth   int   // master accept queue bound
	perWorkerCap int   // dispatch credits per worker
	shedUS       int64 // deadline from accept to dispatch before ERR 503

	wedgeUS     int64 // no-progress window before quarantine
	killGraceUS int64 // quarantine age before the worker is killed
	killRetryUS int64 // retry interval for kills that fail (partition)

	minHealthyUS int64 // lifetime under which a crash counts as "fast"
	breakerTrips int   // consecutive fast crashes that open the breaker
	cooldownUS   int64 // breaker open time before a half-open probe
	backoffBase  int64 // respawn backoff base
	backoffMax   int64 // respawn backoff cap

	maxWorkers     int   // elastic ceiling; == nworkers disables scaling
	scaleUpQueue   int   // accept-queue depth that signals pressure
	upCooldownUS   int64 // min gap between scale-up decisions
	idleUS         int64 // sustained fully-idle window before scale-down
	downCooldownUS int64 // min gap between scale-down decisions
	seed           int64 // p2c dispatch RNG seed (determinism gate)

	standby bool  // run a hot-standby master
	hbUS    int64 // primary→standby heartbeat interval

	runUS      int64  // serve duration; 0 = until stop file appears
	scoreboard string // scoreboard path; stop file is scoreboard+".stop"
	drainUS    int64  // drain deadline

	// knobs is argv[4:] as given: a standby is spawned with it verbatim, so
	// a knob cannot be lost on handover.
	knobs []string

	// Standby-role plumbing (set by the primary on the standby's argv).
	role      string // "" = primary, "standby" = hot standby
	hbFD      int    // standby: heartbeat pipe read end
	ctlFD     int    // standby: control pipe read end (listener handover)
	takeovers int    // takeover generation this master inherited
	maxFDHint int    // standby: hygiene sweep bound (primary's maxFD)
}

func fleetConfigFrom(argv []string) (fleetConfig, bool) {
	if len(argv) < 4 {
		return fleetConfig{}, false
	}
	kv := parseKV(argv[4:])
	ms := func(key string, defMS int) int64 { return int64(kvInt(kv, key, defMS)) * 1000 }
	cfg := fleetConfig{
		addr:           api.SockAddr(argv[1]),
		nworkers:       atoiOr(argv[2], 4),
		docroot:        argv[3],
		queueDepth:     kvInt(kv, "queue", 256),
		perWorkerCap:   kvInt(kv, "cap", 8),
		shedUS:         ms("shed_ms", 400),
		wedgeUS:        ms("wedge_ms", 1000),
		killGraceUS:    ms("kill_grace_ms", 300),
		killRetryUS:    ms("kill_retry_ms", 500),
		minHealthyUS:   ms("min_healthy_ms", 150),
		breakerTrips:   kvInt(kv, "breaker", 3),
		cooldownUS:     ms("cooldown_ms", 400),
		backoffBase:    ms("backoff_ms", 10),
		backoffMax:     ms("backoff_max_ms", 500),
		maxWorkers:     kvInt(kv, "max", 0),
		scaleUpQueue:   kvInt(kv, "scale_up_queue", 8),
		upCooldownUS:   ms("up_cooldown_ms", 50),
		idleUS:         ms("idle_ms", 500),
		downCooldownUS: ms("down_cooldown_ms", 200),
		seed:           int64(kvInt(kv, "seed", 1)),
		standby:        kvInt(kv, "standby", 0) != 0,
		hbUS:           ms("hb_ms", 20),
		runUS:          ms("run_ms", 0),
		scoreboard:     kv["sb"],
		drainUS:        ms("drain_ms", 2000),
		role:           kv["role"],
		hbFD:           kvInt(kv, "hb", -1),
		ctlFD:          kvInt(kv, "ctl", -1),
		takeovers:      kvInt(kv, "takeover", 0),
		maxFDHint:      kvInt(kv, "maxfd", 0),
		knobs:          argv[4:],
	}
	if cfg.scoreboard == "" {
		cfg.scoreboard = "/run/httpd-scoreboard"
	}
	if cfg.maxWorkers < cfg.nworkers {
		cfg.maxWorkers = cfg.nworkers
	}
	return cfg, true
}

// connItem is one accepted connection waiting for dispatch.
type connItem struct {
	fd        int
	arrivalUS int64
}

// fleetMaster is the I/O shell around fleetCore: one thread per blocking
// syscall (accept, dispatch, wait, kill, maintenance, one status read per
// worker), each doing lock → one core handler → unlock → the I/O it asked
// for. It writes no slot or core field itself.
type fleetMaster struct {
	p        api.OS
	passer   api.ConnPasser
	threader api.Threader
	sleep    *pollSleeper
	cfg      fleetConfig

	queue  chan connItem
	killCh chan killReq

	mu    sync.Mutex
	core  *fleetCore
	maxFD int
	sbMu  sync.Mutex // one scoreboard publish at a time, see writeScoreboard

	// Standby wiring: the heartbeat pipe write end (-1 = none; owned by the
	// maintenance thread once it starts), the standby's PID so its reap is
	// not taken for a worker's, and this master's takeover lineage — the
	// election epoch its takeover ran under and the handover count.
	hbW        int
	standbyPID int
	epoch      int64
	takeovers  int

	done chan struct{} // closed when the master stops, drained or killed
}

// FleetWorkerMain is /bin/httpd-worker. It is spawned (not forked) by the
// master, so it inherits the master's whole descriptor table with numbers
// preserved — argv tells it which two descriptors are its own.
//
// Usage: httpd-worker DISPATCH_RFD STATUS_WFD MAXFD SLOT DOCROOT
func FleetWorkerMain(p api.OS, argv []string) int {
	if len(argv) < 6 {
		return 2
	}
	rfd := atoiOr(argv[1], -1)
	sfd := atoiOr(argv[2], -1)
	maxfd := atoiOr(argv[3], -1)
	slot := atoiOr(argv[4], 0)
	docroot := argv[5]
	cp, ok := p.(api.ConnPasser)
	if !ok || rfd < 0 || sfd < 0 {
		return 2
	}
	// Descriptor hygiene, the close-on-exec discipline of a real prefork
	// server: drop every inherited descriptor that is not ours. Stray
	// references to siblings' dispatch pipes would otherwise keep a dead
	// sibling's pipe open, masking the EPIPE the master relies on, and
	// stray connection references would delay the EOF their clients wait
	// for.
	for fd := 3; fd <= maxfd; fd++ {
		if fd != rfd && fd != sfd {
			_ = p.Close(fd)
		}
	}
	// A poisoned docroot crash-loops the slot: the circuit-breaker
	// scenario. The marker is per-slot so a fleet can be part-poisoned.
	if _, err := p.Stat(docroot + "/.poison-" + strconv.Itoa(slot)); err == nil {
		return 3
	}
	// A client that hung up before its response is not a reason to die.
	_ = p.Sigaction(api.SIGPIPE, nil, api.SigIgn)
	// The sleeper backs /__work_<us> synthetic service time; allocated
	// after fd hygiene so its pipe survives the close sweep.
	sleep := newPollSleeper(p)
	_ = writeAll(p, sfd, []byte{'r'})
	for {
		conn, err := cp.ReceiveConnection(rfd)
		if err != nil {
			return 0 // master died or drained the pipe
		}
		fleetServe(p, sleep, conn, docroot)
		_ = p.Close(conn)
		if err := writeAll(p, sfd, []byte{'d'}); err != nil {
			return 0
		}
	}
}

// fleetServe handles one request, with the worker's chaos control paths.
func fleetServe(p api.OS, sleep *pollSleeper, conn int, docroot string) {
	line, err := readLine(p, conn)
	if err != nil {
		return
	}
	fields := strings.Fields(line)
	if len(fields) == 2 && fields[0] == "GET" {
		if arg, ok := strings.CutPrefix(fields[1], "/__work_"); ok {
			// Synthetic service time for capacity experiments: hold the
			// worker's credit for the requested microseconds (capped so a
			// typo cannot wedge a slot past the quarantine window), then
			// answer like a one-byte hit.
			us, _ := strconv.Atoi(arg)
			if us > 100_000 {
				us = 100_000
			}
			if us > 0 {
				sleep.sleepUS(int64(us))
			}
			_ = writeAll(p, conn, []byte("OK 1\nx"))
			return
		}
		switch fields[1] {
		case "/__wedge":
			// Stop making progress without exiting: spin until killed (or
			// a bounded wall-clock cap so an unsupervised worker cannot
			// burn CPU forever). No response, no status byte.
			start := nowUS(p)
			for {
				burnCPU(200_000)
				now, err := p.Gettimeofday()
				if err != nil || now-start > 5_000_000 {
					return
				}
			}
		case "/__exit":
			// Die mid-request: the client sees its connection close with
			// no response, the master sees the worker vanish.
			p.Exit(3)
		case "/__split":
			// Detach into a fresh sandbox. The reference monitor severs
			// every stream shared with the old sandbox, including the
			// dispatch and status pipes; the master observes EPIPE and
			// replaces the seceded worker.
			if sc, ok := p.(api.SandboxCreator); ok {
				_ = writeAll(p, conn, []byte("OK 0\n"))
				_ = p.Close(conn)
				_ = sc.SandboxCreate([]string{"/"})
				p.Exit(0)
			}
			_ = writeAll(p, conn, []byte("ERR 501\n"))
			return
		}
	}
	serveRequestLine(p, conn, docroot, line)
}

// FleetMain is /bin/httpd-fleet, the supervising master.
//
// Usage: httpd-fleet ADDR NWORKERS DOCROOT [key=value ...]
//
// Knobs: queue, cap, shed_ms, wedge_ms, kill_grace_ms, kill_retry_ms,
// min_healthy_ms, breaker, cooldown_ms, backoff_ms, backoff_max_ms,
// run_ms, drain_ms, sb (scoreboard path; "<sb>.stop" triggers drain);
// elastic scaling: max (worker ceiling; > NWORKERS enables the scaler),
// scale_up_queue, up_cooldown_ms, idle_ms, down_cooldown_ms, seed (p2c
// dispatch RNG); standby=1 runs a hot-standby master that adopts the
// listen socket and scoreboard when the primary dies (hb_ms heartbeat).
func FleetMain(p api.OS, argv []string) int {
	cfg, ok := fleetConfigFrom(argv)
	if !ok {
		printf(p, "usage: httpd-fleet ADDR NWORKERS DOCROOT [k=v ...]\n")
		return 2
	}
	if _, okP := p.(api.ConnPasser); !okP {
		return 1
	}
	if _, okT := p.(api.Threader); !okT {
		return 1
	}
	if cfg.role == "standby" {
		return standbyMain(p, cfg)
	}
	lfd, err := p.Listen(cfg.addr)
	if err != nil {
		printf(p, "httpd-fleet: listen: "+err.Error()+"\n")
		return 1
	}
	return runFleet(p, cfg, lfd, 0, cfg.takeovers)
}

// runFleet is the master proper, entered by a fresh primary with the
// listener it bound, or by a promoted standby with the listener it
// adopted (and the election epoch fencing its takeover).
func runFleet(p api.OS, cfg fleetConfig, lfd int, epoch int64, takeovers int) int {
	var fault func(string) int
	if fp, ok := p.(api.FaultPointer); ok {
		fault = fp.FaultPoint
	}
	startUS := nowUS(p)
	m := &fleetMaster{
		p:         p,
		passer:    p.(api.ConnPasser),
		threader:  p.(api.Threader),
		sleep:     newPollSleeper(p),
		cfg:       cfg,
		queue:     make(chan connItem, cfg.queueDepth),
		killCh:    make(chan killReq, 64),
		core:      newFleetCore(cfg, startUS, fault),
		maxFD:     lfd,
		hbW:       -1,
		epoch:     epoch,
		takeovers: takeovers,
		done:      make(chan struct{}),
	}
	// A heartbeat to a standby that has exited (one told 'q' exits at once,
	// mid-drain) or a 503 to a client that has hung up is an EPIPE to
	// handle, not a SIGPIPE to die of.
	_ = p.Sigaction(api.SIGPIPE, nil, api.SigIgn)
	// Parent configuration and module state, shared COW with workers.
	touchHeap(p, 4<<20)

	if cfg.standby {
		m.spawnStandby(lfd)
	}
	for _, thread := range []func(){m.supervisor, m.dispatcher, m.killer, func() { m.maintenance(startUS) }} {
		if err := m.threader.SpawnThread(thread); err != nil {
			return 1
		}
	}

	// Accept loop. Every accepted connection is timestamped at arrival so
	// shedding measures true queueing delay; a full queue sheds at accept.
	for {
		conn, err := p.Accept(lfd)
		if err != nil {
			break
		}
		m.mu.Lock()
		draining := m.core.draining
		if conn > m.maxFD {
			m.maxFD = conn
		}
		m.mu.Unlock()
		if draining {
			_ = p.Close(conn) // the self-connect (or a late client) during drain
			break
		}
		select {
		case m.queue <- connItem{fd: conn, arrivalUS: nowUS(p)}:
		default:
			m.mu.Lock()
			m.core.overflow()
			m.mu.Unlock()
			m.send503(conn)
		}
	}
	close(m.queue)
	if !m.alive() {
		// Killed by the host (chaos or a fault point): the standby owns
		// the fleet now. Unblock helper threads parked on done and leave;
		// there is nothing left to drain through a dead picoprocess.
		close(m.done)
		return 1
	}
	m.drain()
	return 0
}

// alive reports whether the master's process can still enter the host
// kernel. A master killed at a fault point keeps its guest threads; they
// must notice and stand down rather than spin on instantly-failing calls.
func (m *fleetMaster) alive() bool {
	_, err := m.p.Gettimeofday()
	return err == nil
}

// noteFDs tracks the highest descriptor number the master has seen and
// returns it, so a spawned child knows how far its hygiene sweep must reach.
func (m *fleetMaster) noteFDs(fds ...int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, fd := range fds {
		if fd > m.maxFD {
			m.maxFD = fd
		}
	}
	return m.maxFD
}

func (m *fleetMaster) closeFDs(fds ...int) {
	for _, fd := range fds {
		if fd >= 0 {
			_ = m.p.Close(fd)
		}
	}
}

// send503 answers a connection the fleet will not serve: a fast, explicit
// rejection instead of unbounded queueing. The core has already counted it.
func (m *fleetMaster) send503(fd int) {
	_ = writeAll(m.p, fd, []byte("ERR 503\n"))
	_ = m.p.Close(fd)
}

// dispatcher moves connections from the accept queue to workers,
// shedding whatever cannot be placed before its deadline.
func (m *fleetMaster) dispatcher() {
	for item := range m.queue {
		m.dispatchOne(item)
	}
}

func (m *fleetMaster) dispatchOne(item connItem) {
	for {
		now, err := m.p.Gettimeofday()
		if err != nil {
			_ = m.p.Close(item.fd) // master killed
			return
		}
		m.mu.Lock()
		pl, next := m.core.place(now, item.arrivalUS)
		m.mu.Unlock()
		if next == dispatchPass {
			err := m.passer.PassConnection(pl.fd, item.fd)
			if err == nil {
				_ = m.p.Close(item.fd)
				return
			}
			m.mu.Lock()
			next = m.core.passFailed(pl, api.ToErrno(err))
			m.mu.Unlock()
		}
		switch next {
		case dispatchShed:
			m.send503(item.fd)
			return
		case dispatchBackoff:
			m.sleep.sleepUS(1000)
		}
	}
}

// supervisor reaps dead children and hands each to the core's exit
// bookkeeping. The standby master is a child too; its exit is not a
// worker's.
func (m *fleetMaster) supervisor() {
	for {
		wr, err := m.p.Wait(-1)
		if err != nil {
			if api.ToErrno(err) == api.ESRCH || !m.alive() {
				return // master killed: nothing left to supervise
			}
			// ECHILD: no children right now (all reaped, respawns pending).
			select {
			case <-m.done:
				return
			default:
			}
			m.sleep.sleepUS(5000)
			continue
		}
		if wr.PID == m.standbyPID {
			continue
		}
		now := nowUS(m.p)
		m.mu.Lock()
		wfd, sfd := m.core.exited(wr.PID, now)
		m.mu.Unlock()
		m.closeFDs(wfd, sfd)
	}
}

// readStatus feeds one worker's liveness bytes to the core. One thread per
// worker, because a read through a network partition parks until the
// partition heals — a single shared reader would let one wedged link
// starve every healthy worker's bookkeeping. The thread ends at EOF (worker
// death or sandbox secession: the supervisor handles the slot), when the
// pipe is closed under it, or when the core says the slot has moved on.
func (m *fleetMaster) readStatus(s *fleetSlot, pid, fd int) {
	buf := make([]byte, 64)
	for {
		n, err := m.p.Read(fd, buf)
		if n <= 0 || err != nil {
			return
		}
		now := nowUS(m.p)
		m.mu.Lock()
		current := m.core.status(s, pid, buf[:n], now)
		m.mu.Unlock()
		if !current {
			return
		}
	}
}

// killer performs worker kills on its own thread: a kill through a
// partition blocks on the signal RPC timeout, and quarantine maintenance
// must not stall behind it.
func (m *fleetMaster) killer() {
	for {
		var req killReq
		select {
		case req = <-m.killCh:
		case <-m.done:
			return
		}
		m.mu.Lock()
		due := m.core.killDue(req)
		m.mu.Unlock()
		if due {
			_ = m.p.Kill(req.pid, req.sig)
		}
	}
}

// spawnSlot starts a worker for s. Runs outside the master lock (Spawn is
// a checkpoint round trip), so the worker can exit and be reaped before
// spawned reports its PID; the core reconciles that.
func (m *fleetMaster) spawnSlot(s *fleetSlot) {
	pid, w, sr, err := m.spawnWorker(s.id)
	now := nowUS(m.p)
	m.mu.Lock()
	live := false
	if err != nil {
		m.core.spawnFailed(s, now)
	} else {
		live = m.core.spawned(s, pid, w, sr, now)
	}
	m.mu.Unlock()
	if !live {
		m.closeFDs(w, sr)
		return
	}
	_ = m.threader.SpawnThread(func() { m.readStatus(s, pid, sr) })
}

// spawnWorker creates the dispatch and status pipes and the worker process,
// returning the master's ends (-1 on error).
func (m *fleetMaster) spawnWorker(slot int) (pid, dispatchW, statusR int, err error) {
	r, w, err := m.p.Pipe()
	if err != nil {
		return 0, -1, -1, err
	}
	sr, sw, err := m.p.Pipe()
	if err != nil {
		m.closeFDs(r, w)
		return 0, -1, -1, err
	}
	maxfd := m.noteFDs(r, w, sr, sw) + 16 // slack for descriptors raced in before checkpoint
	pid, err = m.p.Spawn("/bin/httpd-worker", []string{
		"httpd-worker", strconv.Itoa(r), strconv.Itoa(sw), strconv.Itoa(maxfd),
		strconv.Itoa(slot), m.cfg.docroot,
	})
	m.closeFDs(r, sw)
	if err != nil {
		m.closeFDs(w, sr)
		return 0, -1, -1, err
	}
	return pid, w, sr, nil
}

// maintenance is the master's periodic thread: it evaluates the
// "fleet.master.kill" fault point, checks the drain triggers, feeds the
// core one tick (scaler, breaker probes, wedge quarantine, spawn/kill
// scheduling), applies the returned actions, heartbeats the standby, and
// publishes the scoreboard.
func (m *fleetMaster) maintenance(startUS int64) {
	stopFile := m.cfg.scoreboard + ".stop"
	hbEvery := max(1, int(m.cfg.hbUS/5000))
	draining := false
	for tick := 0; ; tick++ {
		select {
		case <-m.done:
			return
		default:
		}
		// The handover fault point: a Kill rule here crashes the master at
		// a deterministic maintenance tick, mid-load.
		m.core.faultAt("fleet.master.kill")
		now, err := m.p.Gettimeofday()
		if err != nil {
			return // killed by chaos or a fault point: the standby takes over
		}
		// Drain trigger: fixed duration or operator stop file.
		if !draining {
			_, statErr := m.p.Stat(stopFile)
			if statErr == nil || (m.cfg.runUS > 0 && now-startUS > m.cfg.runUS) {
				draining = true
				m.beginDrain()
			}
		}
		m.mu.Lock()
		acts := m.core.tick(now, len(m.queue))
		m.mu.Unlock()
		for _, s := range acts.spawn {
			m.spawnSlot(s)
		}
		for _, req := range acts.kill {
			select {
			case m.killCh <- req:
			default:
			}
		}
		if tick%hbEvery == 0 {
			m.heartbeatStandby()
		}
		if tick%4 == 0 {
			m.writeScoreboard()
		}
		m.sleep.sleepUS(5000)
	}
}

// beginDrain flips the fleet into drain mode, tells the standby this is a
// planned shutdown rather than a death to take over from, and wakes the
// accept loop with a self-connect (there is no way to interrupt a blocked
// accept). Maintenance thread only.
func (m *fleetMaster) beginDrain() {
	m.mu.Lock()
	m.core.beginDrain()
	m.mu.Unlock()
	if m.hbW >= 0 {
		_ = writeAll(m.p, m.hbW, []byte{'q'})
	}
	if fd, err := m.p.Connect(m.cfg.addr); err == nil {
		_ = m.p.Close(fd)
	}
}

// drain runs after the accept loop stops: flush the queue (the dispatcher
// sheds or places everything left), wait for in-flight requests, then
// terminate and reap the fleet.
func (m *fleetMaster) drain() {
	m.await(func() bool { return len(m.queue) == 0 && m.core.inflightTotal() == 0 })
	// Terminate idle workers; SIGTERM's default disposition is fatal.
	m.mu.Lock()
	live := m.core.terminateAll()
	m.mu.Unlock()
	for _, req := range live {
		m.killCh <- req
	}
	// Wait for the supervisor to reap every death.
	m.await(m.core.drained)
	close(m.done) // killCh stays open: racing senders must never panic
	m.writeScoreboard()
}

// await polls cond under the master lock every 5 ms until it holds, drain_ms
// pass (a kill lost to a partition must not wedge shutdown) or the clock
// fails (a killed master's threads must not spin).
func (m *fleetMaster) await(cond func() bool) {
	deadline := nowUS(m.p) + m.cfg.drainUS
	for {
		if now, err := m.p.Gettimeofday(); err != nil || now >= deadline {
			return
		}
		m.mu.Lock()
		ok := cond()
		m.mu.Unlock()
		if ok {
			return
		}
		m.sleep.sleepUS(5000)
	}
}

// writeScoreboard publishes the core's scoreboard line by rename swap,
// which is what lets a promoted standby adopt the scoreboard: its first
// publish atomically replaces the dead primary's last line. Render, write
// and rename are one critical section: the periodic publish and drain's
// final one share the temp file, and an older line must not land last.
func (m *fleetMaster) writeScoreboard() {
	m.sbMu.Lock()
	defer m.sbMu.Unlock()
	m.mu.Lock()
	line := m.core.scoreboard(m.epoch, m.takeovers)
	m.mu.Unlock()
	tmp := m.cfg.scoreboard + ".tmp"
	if err := writeFile(m.p, tmp, []byte(line)); err != nil {
		return
	}
	_ = m.p.Rename(tmp, m.cfg.scoreboard)
}
