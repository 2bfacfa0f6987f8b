package apps

import (
	"strconv"
	"strings"
	"sync"

	"graphene/internal/api"
)

// This file implements /bin/loadgen, the sustained open-loop load
// generator the fleet SLO tests drive, and /bin/fleetchaos, the in-guest
// chaos driver that kills fleet workers on a schedule.
//
// /bin/ab is closed-loop: each of its threads waits for a response before
// sending the next request, so a slow server is automatically offered
// less load and tail latency is flattered (coordinated omission). loadgen
// is open-loop: requests are launched on a fixed schedule regardless of
// how the previous ones are faring, which is what exposes queueing
// collapse, makes overload shedding observable, and gives honest p99/p999
// numbers under chaos.

// loadgenSink, when set, receives one sample per completed request:
// its outcome class ("ok", "shed", or "err") and its latency in
// microseconds. All personalities run in-process, so a package-level hook
// is how tests and benchmarks wire loadgen into metrics histograms
// without the apps package importing internal/metrics.
var (
	loadgenSinkMu sync.RWMutex
	loadgenSink   func(class string, latencyUS int64)
)

// SetLoadgenSink installs (or, with nil, removes) the sample hook.
func SetLoadgenSink(fn func(class string, latencyUS int64)) {
	loadgenSinkMu.Lock()
	loadgenSink = fn
	loadgenSinkMu.Unlock()
}

func emitSample(class string, latencyUS int64) {
	loadgenSinkMu.RLock()
	fn := loadgenSink
	loadgenSinkMu.RUnlock()
	if fn != nil {
		fn(class, latencyUS)
	}
}

// deadlineReader reads a connection in buffered chunks, polling for
// readability before each refill so a wedged or killed server cannot hang
// the generator past the request deadline.
type deadlineReader struct {
	p          api.OS
	poller     api.Poller
	fd         int
	deadlineUS int64
	buf        []byte
	r, w       int
}

func (d *deadlineReader) refill() error {
	if d.poller != nil {
		remain := d.deadlineUS - nowUS(d.p)
		if remain <= 0 {
			return api.ETIMEDOUT
		}
		if _, err := d.poller.Poll([]int{d.fd}, remain); err != nil {
			return err
		}
	}
	n, err := d.p.Read(d.fd, d.buf)
	if err != nil {
		return err
	}
	if n == 0 {
		return api.EPIPE
	}
	d.r, d.w = 0, n
	return nil
}

func (d *deadlineReader) readByte() (byte, error) {
	if d.r >= d.w {
		if err := d.refill(); err != nil {
			return 0, err
		}
	}
	b := d.buf[d.r]
	d.r++
	return b, nil
}

func (d *deadlineReader) readLine() (string, error) {
	var sb strings.Builder
	for {
		b, err := d.readByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return sb.String(), nil
		}
		sb.WriteByte(b)
	}
}

func (d *deadlineReader) discard(n int) error {
	for n > 0 {
		if d.r >= d.w {
			if err := d.refill(); err != nil {
				return err
			}
		}
		chunk := d.w - d.r
		if chunk > n {
			chunk = n
		}
		d.r += chunk
		n -= chunk
	}
	return nil
}

// fetchClass performs one GET and classifies the outcome:
//
//	"ok"   — complete OK response
//	"shed" — the server explicitly refused with ERR 503
//	"err"  — anything else: refused connection, reset, truncation,
//	         timeout, or a non-503 error status
//
// The distinction matters for the SLO accounting: shed requests are the
// overload policy working as designed and are budgeted separately from
// genuine failures.
func fetchClass(p api.OS, poller api.Poller, addr api.SockAddr, path string, deadlineUS int64) string {
	fd, err := p.Connect(addr)
	if err != nil {
		return "err"
	}
	defer p.Close(fd)
	if err := writeAll(p, fd, []byte("GET "+path+"\n")); err != nil {
		return "err"
	}
	rd := &deadlineReader{p: p, poller: poller, fd: fd, deadlineUS: deadlineUS, buf: make([]byte, 512)}
	header, err := rd.readLine()
	if err != nil {
		return "err"
	}
	fields := strings.Fields(header)
	if len(fields) != 2 {
		return "err"
	}
	switch fields[0] {
	case "OK":
		if err := rd.discard(atoiOr(fields[1], 0)); err != nil {
			return "err"
		}
		return "ok"
	case "ERR":
		if fields[1] == "503" {
			return "shed"
		}
		return "err"
	default:
		return "err"
	}
}

// LoadgenMain is /bin/loadgen.
//
// Usage: loadgen ADDR PATH RATE_RPS DUR_MS CONC [timeout_ms=N]
//
// RATE_RPS > 0 runs open-loop at that aggregate rate, spread across CONC
// worker threads; a worker that falls behind its schedule issues
// back-to-back requests to catch up rather than silently dropping offered
// load. RATE_RPS == 0 runs closed-loop (each worker as fast as responses
// return). Prints one summary line:
//
//	LOADGEN sent=N ok=N shed=N err=N dur_us=N
func LoadgenMain(p api.OS, argv []string) int {
	if len(argv) < 6 {
		printf(p, "usage: loadgen ADDR PATH RATE_RPS DUR_MS CONC [timeout_ms=N]\n")
		return 2
	}
	addr := api.SockAddr(argv[1])
	path := argv[2]
	rate := atoiOr(argv[3], 0)
	durUS := int64(atoiOr(argv[4], 1000)) * 1000
	conc := atoiOr(argv[5], 4)
	if conc < 1 {
		conc = 1
	}
	kv := parseKV(argv[6:])
	timeoutUS := int64(kvInt(kv, "timeout_ms", 1000)) * 1000

	threader, ok := p.(api.Threader)
	if !ok {
		return 1
	}
	poller, _ := p.(api.Poller)
	sleep := newPollSleeper(p)
	// A request written to a connection whose worker was just killed gets
	// EPIPE; that is an "err" sample, not a reason to die of SIGPIPE.
	_ = p.Sigaction(api.SIGPIPE, nil, api.SigIgn)

	type tally struct{ sent, ok, shed, err int }
	results := make(chan tally, conc)
	start := nowUS(p)

	worker := func(w int) {
		var t tally
		// Per-worker inter-arrival gap; workers phase-offset so the
		// aggregate arrival process is evenly spread, not conc-sized
		// bursts.
		var gapUS int64
		if rate > 0 {
			gapUS = int64(conc) * 1_000_000 / int64(rate)
		}
		offsetUS := int64(0)
		if gapUS > 0 {
			offsetUS = gapUS * int64(w) / int64(conc)
		}
		for i := int64(0); ; i++ {
			now, err := p.Gettimeofday()
			if err != nil || now-start >= durUS {
				break // done, or this process was killed under its threads
			}
			if gapUS > 0 {
				due := start + offsetUS + i*gapUS
				if wait := due - now; wait > 0 {
					sleep.sleepUS(wait)
				}
			}
			t0 := nowUS(p)
			class := fetchClass(p, poller, addr, path, t0+timeoutUS)
			lat := nowUS(p) - t0
			emitSample(class, lat)
			t.sent++
			switch class {
			case "ok":
				t.ok++
			case "shed":
				t.shed++
			default:
				t.err++
			}
		}
		results <- t
	}
	for w := 1; w < conc; w++ {
		w := w
		if err := threader.SpawnThread(func() { worker(w) }); err != nil {
			return 1
		}
	}
	worker(0)
	var total tally
	for w := 0; w < conc; w++ {
		t := <-results
		total.sent += t.sent
		total.ok += t.ok
		total.shed += t.shed
		total.err += t.err
	}
	end := nowUS(p)
	printf(p, "LOADGEN sent="+strconv.Itoa(total.sent)+
		" ok="+strconv.Itoa(total.ok)+
		" shed="+strconv.Itoa(total.shed)+
		" err="+strconv.Itoa(total.err)+
		" dur_us="+strconv.FormatInt(end-start, 10)+"\n")
	return 0
}

// FleetChaosMain is /bin/fleetchaos: an in-guest chaos driver that
// SIGKILLs a random fleet worker on a fixed schedule. It learns worker
// PIDs from the master's scoreboard file, so it never targets the master
// itself. On native and KVM the shared in-guest kernel makes cross-process
// Kill possible from an ordinary program; on Graphene, per-launch sandbox
// isolation forbids signalling another launch's picoprocesses — by design
// (§4.2) — so chaos there is injected at the host layer by the test
// harness instead.
//
// Usage: fleetchaos SCOREBOARD INTERVAL_MS DUR_MS
//
// Prints "CHAOS kills=N" on exit.
func FleetChaosMain(p api.OS, argv []string) int {
	if len(argv) < 4 {
		printf(p, "usage: fleetchaos SCOREBOARD INTERVAL_MS DUR_MS\n")
		return 2
	}
	sbPath := argv[1]
	intervalUS := int64(atoiOr(argv[2], 250)) * 1000
	durUS := int64(atoiOr(argv[3], 1000)) * 1000
	sleep := newPollSleeper(p)
	start := nowUS(p)
	kills := 0
	var rnd [2]byte
	for nowUS(p)-start < durUS {
		sleep.sleepUS(intervalUS)
		data, err := readFile(p, sbPath)
		if err != nil {
			continue
		}
		pids := scoreboardPIDs(string(data))
		if len(pids) == 0 {
			continue
		}
		idx := 0
		if _, err := p.GetRandom(rnd[:]); err == nil {
			idx = (int(rnd[0])<<8 | int(rnd[1])) % len(pids)
		}
		if err := p.Kill(pids[idx], api.SIGKILL); err == nil {
			kills++
		}
	}
	printf(p, "CHAOS kills="+strconv.Itoa(kills)+"\n")
	return 0
}

// scoreboardPIDs extracts the live worker PIDs from a scoreboard line.
func scoreboardPIDs(line string) []int {
	var pids []int
	for _, tok := range strings.Fields(line) {
		if !strings.HasPrefix(tok, "pids=") {
			continue
		}
		for _, s := range strings.Split(strings.TrimPrefix(tok, "pids="), ",") {
			if pid := atoiOr(s, 0); pid > 0 {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// scoreboardField reads one integer field ("alive", "shed", …) from a
// scoreboard line, -1 if absent. Shared with the fleet tests.
func scoreboardField(line, key string) int {
	for _, tok := range strings.Fields(line) {
		if strings.HasPrefix(tok, key+"=") {
			return atoiOr(strings.TrimPrefix(tok, key+"="), -1)
		}
	}
	return -1
}
