package apps

import (
	"bytes"
	"strconv"

	"graphene/internal/api"
)

// Hot-standby master. The primary spawns a second httpd-fleet in standby
// role and immediately passes it the listen socket over a control pipe
// (pass-early/activate-on-death: Graphene's checkpoint does not carry
// listeners, but a passed handle makes the standby a co-holder of the
// same host listener, exactly as an SCM_RIGHTS-passed fd refers to the
// same open file description — so the socket survives the primary).
// The standby then parks on the heartbeat pipe:
//
//	'h'  primary alive — keep waiting
//	'q'  planned drain — exit cleanly, no takeover
//	EOF  primary died — run one epoch-fenced election round, then adopt
//	     the fleet: serve from the already-held listener, publish over
//	     the rename-swapped scoreboard, and spawn a fresh standby of its
//	     own so the fleet always has a successor.
//
// The dead primary's workers are not adopted: their dispatch pipes EOF
// when the primary's descriptor table is torn down, so they exit on
// their own and the new master spawns a fresh fleet from the zygote
// cache. Handover cost is therefore one election window plus nworkers
// sub-millisecond spawns.

// standbyArgv is the standby's command line: the primary's own arguments
// verbatim — every knob, whatever gets added later — followed by the role
// plumbing. parseKV is last-wins, so a promoted standby's own standby,
// whose inherited knobs already carry a role= set, still parses right.
func standbyArgv(cfg fleetConfig, hbR, ctlR, takeovers, maxfd int) []string {
	argv := []string{"httpd-fleet", string(cfg.addr), strconv.Itoa(cfg.nworkers), cfg.docroot}
	argv = append(argv, cfg.knobs...)
	return append(argv,
		"role=standby",
		"hb="+strconv.Itoa(hbR),
		"ctl="+strconv.Itoa(ctlR),
		"takeover="+strconv.Itoa(takeovers),
		"maxfd="+strconv.Itoa(maxfd),
	)
}

// spawnStandby starts the hot standby and hands it the listen socket.
// Called once at master startup, before the serving threads exist.
func (m *fleetMaster) spawnStandby(lfd int) {
	hbR, hbW, err := m.p.Pipe()
	if err != nil {
		return
	}
	ctlR, ctlW, err := m.p.Pipe()
	if err != nil {
		m.closeFDs(hbR, hbW)
		return
	}
	maxfd := m.noteFDs(hbR, hbW, ctlR, ctlW) + 16
	pid, err := m.p.Spawn("/bin/httpd-fleet", standbyArgv(m.cfg, hbR, ctlR, m.takeovers+1, maxfd))
	if err != nil {
		m.closeFDs(hbR, hbW, ctlR, ctlW)
		return
	}
	m.standbyPID = pid
	// Listener handover, eagerly: once this completes the standby co-holds
	// the listen socket at the host and the primary's death cannot tear it
	// down.
	if err := m.passer.PassConnection(ctlW, lfd); err != nil {
		m.closeFDs(hbR, hbW, ctlR, ctlW)
		return
	}
	m.closeFDs(hbR, ctlR, ctlW)
	m.hbW = hbW
}

// heartbeatStandby sends one liveness byte. A failed write means the
// standby died; the primary keeps serving without one (it does not
// respawn standbys — a fleet that lost both masters in one run is a
// chaos scenario the error budget owns). Maintenance thread only.
func (m *fleetMaster) heartbeatStandby() {
	if m.hbW < 0 {
		return
	}
	if err := writeAll(m.p, m.hbW, []byte{'h'}); err != nil {
		_ = m.p.Close(m.hbW)
		m.hbW = -1
	}
}

// standbyMain is the standby-role entry point: adopt the listener, wait
// for the primary to die or drain, take over if it dies.
func standbyMain(p api.OS, cfg fleetConfig) int {
	cp := p.(api.ConnPasser)
	if cfg.hbFD < 0 || cfg.ctlFD < 0 {
		return 2
	}
	// Descriptor hygiene, same discipline as the workers: the standby
	// inherits the primary's whole table (worker dispatch pipes included).
	// Holding those write ends open would mask the EPIPE/EOF signals the
	// rest of the fleet relies on, so drop everything but our two pipes.
	for fd := 3; fd <= cfg.maxFDHint; fd++ {
		if fd != cfg.hbFD && fd != cfg.ctlFD {
			_ = p.Close(fd)
		}
	}
	lfd, err := cp.ReceiveConnection(cfg.ctlFD)
	if err != nil {
		return 1
	}
	_ = p.Close(cfg.ctlFD)
	buf := make([]byte, 16)
	for {
		n, err := p.Read(cfg.hbFD, buf)
		if err != nil || n <= 0 {
			break // EOF: the primary is gone
		}
		if bytes.IndexByte(buf[:n], 'q') >= 0 {
			return 0 // planned drain: the fleet is shutting down
		}
	}
	_ = p.Close(cfg.hbFD)
	// Takeover. One election round through the coordination plane fences
	// this master's epoch against any stale primary still flushing writes;
	// the epoch lands on the scoreboard so readers can spot the handover.
	var epoch int64
	if el, ok := p.(api.Elector); ok {
		if e, err := el.ElectEpoch(); err == nil {
			epoch = e
		}
	}
	return runFleet(p, cfg, lfd, epoch, cfg.takeovers)
}
