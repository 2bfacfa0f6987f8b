package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/apps"
	"graphene/internal/baseline/native"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

// benchManifest permits everything the workloads touch, so what is
// measured is the cost of the mediation mechanism (every check still
// runs) rather than the cost of being refused.
const benchManifest = `
mount / /
allow_read /
allow_write /
net_listen *:*
net_connect *:*
`

// driverPath is where a round registers its workload driver.
const driverPath = "/bin/bench-driver"

// roundDeadline is the hang watchdog of one round. A healthy round takes
// about a second; one that is still running after this long is wedged, and
// the run must end (non-zero) well inside the contract's 180 s.
const roundDeadline = 60 * time.Second

// machine is one freshly booted personality a round runs on.
type machine struct {
	register func(path string, prog api.Program) error
	// launch starts the program registered at path and returns a channel
	// closed at its exit plus its exit code (valid once the channel closed).
	launch func(path string) (<-chan struct{}, func() int, error)
	kernel *host.Kernel // nil on the native baseline
}

// bootGraphene boots the Graphene personality at shipped defaults from the
// layers' public constructors: reference monitor on, no ipc.Set* call.
// With a tracer, the monitor and every registered program are decorated.
func bootGraphene(t *tracer) (*machine, error) {
	k := host.NewKernel()
	mon := monitor.New(k)
	if t != nil {
		k.SetPolicy(tracedPolicy{inner: mon, t: t})
	}
	rt := liblinux.NewRuntime(k, mon)
	man, err := monitor.ParseManifest("benchmark", benchManifest)
	if err != nil {
		return nil, err
	}
	m := &machine{
		kernel: k,
		register: func(path string, prog api.Program) error {
			if t != nil {
				prog = tracedProgram(t, prog)
			}
			return rt.RegisterProgram(path, prog)
		},
		launch: func(path string) (<-chan struct{}, func() int, error) {
			res, err := rt.Launch(man, path, []string{path})
			if err != nil {
				return nil, nil, err
			}
			return res.Done, res.ExitCode, nil
		},
	}
	return m, apps.RegisterAll(m.register)
}

// bootNative boots the native-Linux baseline with the same app suite.
func bootNative() (*machine, error) {
	k := native.NewKernel()
	m := &machine{
		register: k.RegisterProgram,
		launch: func(path string) (<-chan struct{}, func() int, error) {
			res, err := k.Launch(path, []string{path})
			if err != nil {
				return nil, nil, err
			}
			return res.Done, res.ExitCode, nil
		},
	}
	return m, apps.RegisterAll(m.register)
}

// roundRec is what one round produces, shared between the harness and the
// workload's guest driver (both live in this process, so the driver
// records into it directly and the guest needs no result files).
type roundRec struct {
	rng   *rand.Rand // the round's seeded input stream (driver-only)
	t     *tracer    // nil on timed rounds
	units int        // closed-loop units to run

	boot        time.Time // harness: before the kernel is created
	timedStart  time.Time // driver: first timed operation
	closedStart time.Time // driver: start of the closed-loop phase
	elapsed     time.Duration
	openUnits   int    // open-loop units before the closed-loop phase
	board       string // httpd_fleet: the fleet's scoreboard line at the end

	mu        sync.Mutex
	lat       []int64 // per-unit latency of the closed-loop phase, ns
	openLat   []int64 // open-loop latency from each request's due time, ns
	late      []int64 // open-loop generator lateness, ns
	completed int     // verified units of the closed-loop phase
	attempted int
	failed    int // units that failed: an error return, a wrong output, a timeout
	wrong     int // … of which: outputs that were incorrect
	stale     int // ns_churn: lookups of a live key that first answered ENOENT
	misses    []string

	// parked is closed by the driver when the environment is at its
	// measuring point (work done, everything still alive); the driver
	// then blocks on release while the harness reads memory.
	parked  chan struct{}
	release chan struct{}

	// Counters the program keeps itself, read where the timed window
	// begins and ends (see onTimedStart).
	kernel         *host.Kernel // nil on the native baseline
	gates0, gates1 int64        // Kernel.SyscallCount
	trace0, trace1 int64        // host.TraceNow
	ringOps0       float64      // Σ ipc.ring_ops gauges

	checkpointKB float64 // proc_tree, traced: size of the driver's checkpoint

	// Filled by the harness at the measuring point.
	retainedMB float64
	residentMB float64
	layer      map[string]float64 // traced rounds: per-layer readings
	spans      []span             // traced rounds: the spans they were read from
}

// startTimed marks the end of set-up and the start of the closed-loop
// clock; stopTimed stops that clock. httpd_fleet restarts the clock
// itself between its two phases.
func (r *roundRec) startTimed() {
	r.onTimedStart()
	r.timedStart = time.Now()
	r.closedStart = r.timedStart
}

func (r *roundRec) stopTimed() {
	r.elapsed = time.Since(r.closedStart)
	r.onTimedStop()
}

// noteLate records how far behind its schedule the open-loop generator
// sent a request.
func (r *roundRec) noteLate(d time.Duration) {
	r.mu.Lock()
	r.late = append(r.late, int64(d))
	r.mu.Unlock()
}

// tooSlow counts a request that came back after the latency limit as
// failed, whatever it carried.
func (r *roundRec) tooSlow(n int, lat time.Duration) {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
	r.miss("request %d: %v from its due time, limit %v", n, lat, fleetLatencyOK)
}

// staleLookup notes a lookup of a live key that answered ENOENT.
func (r *roundRec) staleLookup(n int, key int) {
	r.mu.Lock()
	r.stale++
	r.mu.Unlock()
	r.miss("unit %d: live key %#x was transiently invisible to its sibling (ipc.stale_lookups)", n, key)
}

// park hands control to the harness until it has taken its readings.
func (r *roundRec) park() {
	close(r.parked)
	<-r.release
}

// miss records a correctness failure; the first few are kept verbatim so
// the output can name what went wrong in which round.
func (r *roundRec) miss(format string, args ...interface{}) {
	r.mu.Lock()
	if len(r.misses) < 4 {
		r.misses = append(r.misses, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// driver is one thread of a workload's guest driver: the OS handle it
// calls through and, when tracing, the unit and step spans around it.
type driver struct {
	os  api.OS
	r   *roundRec
	tos *tracedOS // nil on timed rounds

	unitID int32
	unitAt time.Time
	ok     bool
}

// drive binds a driver thread to p. When tracing, the thread gets its own
// copy of the traced handle so its calls are parented to its own steps
// even when several threads share one picoprocess.
func (r *roundRec) drive(p api.OS) *driver {
	d := &driver{os: p, r: r}
	if tp, ok := p.(*tracedOS); ok {
		cp := *tp
		d.tos, d.os = &cp, &cp
	}
	return d
}

// begin opens unit n (n identifies the unit in the trace).
func (d *driver) begin(n int) {
	d.ok = true
	if d.tos != nil {
		d.r.t.unit.Store(int32(n))
		d.unitID = d.r.t.begin(layerBench, "unit", d.tos.pid, 0)
		d.tos.parent = d.unitID
	}
	d.unitAt = time.Now()
}

// beginAt opens unit n with its latency clock started at due, the time an
// open-loop request was scheduled for rather than when it was sent.
func (d *driver) beginAt(n int, due time.Time) {
	d.begin(n)
	d.unitAt = due
}

// fail marks the open unit failed — a call returned an error — and says
// why. wrong marks it failed because an output was incorrect, which also
// makes the whole run incorrect. check picks between them for a call that
// is verified in one condition.
func (d *driver) fail(format string, args ...interface{}) {
	d.ok = false
	d.r.miss(format, args...)
}

func (d *driver) wrong(format string, args ...interface{}) {
	d.ok = false
	d.r.mu.Lock()
	d.r.wrong++
	d.r.mu.Unlock()
	d.r.miss(format, args...)
}

func (d *driver) check(err error, format string, args ...interface{}) {
	if err != nil {
		d.fail(format+": %v", append(args, err)...)
		return
	}
	d.wrong(format, args...)
}

// What a finished unit counts toward. Warm-up units count toward neither
// (they are still verified and still counted as attempted).
const (
	countLatency    = 1 << iota // its latency is a sample of p50_us/p90_us
	countThroughput             // it is a completed unit of ops_per_s
	countOpenLoop               // its latency, from its due time, is an open-loop sample
)

// end closes the unit, recording its outcome and, per counts, its latency
// and completion.
func (d *driver) end(counts int) time.Duration {
	lat := time.Since(d.unitAt)
	if d.tos != nil {
		d.r.t.end(d.unitID, !d.ok)
		d.tos.parent = 0
	}
	r := d.r
	r.mu.Lock()
	r.attempted++
	if !d.ok {
		r.failed++
	} else {
		if counts&countLatency != 0 {
			r.lat = append(r.lat, int64(lat))
		}
		if counts&countOpenLoop != 0 {
			r.openLat = append(r.openLat, int64(lat))
		}
		if counts&countThroughput != 0 {
			r.completed++
		}
	}
	r.mu.Unlock()
	return lat
}

// step opens a named part of the current unit; done closes it. Both are
// a nil check on timed rounds.
func (d *driver) step(name string) int32 {
	if d.tos == nil {
		return 0
	}
	id := d.r.t.begin(layerBench, name, d.tos.pid, d.unitID)
	d.tos.parent = id
	return id
}

func (d *driver) done(id int32) {
	if d.tos == nil {
		return
	}
	d.r.t.end(id, false)
	d.tos.parent = d.unitID
}

// rendezvous lets n guest threads meet: the last to arrive runs last and
// releases the rest.
type rendezvous struct {
	mu      sync.Mutex
	n       int
	arrived int
	ch      chan struct{}
}

func newRendezvous(n int) *rendezvous { return &rendezvous{n: n, ch: make(chan struct{})} }

func (v *rendezvous) meet(last func()) {
	v.mu.Lock()
	v.arrived++
	isLast := v.arrived == v.n
	v.mu.Unlock()
	if isLast {
		if last != nil {
			last()
		}
		close(v.ch)
		return
	}
	<-v.ch
}

// heapMB is the live Go heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// residentMB sums the footprint of every live picoprocess (Fig 4).
func residentMB(k *host.Kernel) float64 {
	var total uint64
	for _, p := range k.Processes() {
		total += p.AS.ResidentBytes()
	}
	return float64(total) / (1 << 20)
}

// runRound boots a fresh machine, runs w's driver on it to its measuring
// point, takes the memory readings, lets it tear down, and drops it.
func runRound(w *workload, seed int64, round int, units int, native bool, t *tracer) (*roundRec, error) {
	r := &roundRec{
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(round))),
		t:     t,
		units: units,
		// A shrunk round (verbose, self-test) shrinks its open-loop phase
		// in proportion.
		openUnits: w.openLoopUnits * units / w.units,
		lat:       make([]int64, 0, units+w.openLoopUnits),
		late:      make([]int64, 0, w.openLoopUnits),
		parked:    make(chan struct{}),
		release:   make(chan struct{}),
	}
	debug.FreeOSMemory()
	heap0 := heapMB()
	r.boot = time.Now()
	var m *machine
	var err error
	if native {
		m, err = bootNative()
	} else {
		m, err = bootGraphene(t)
	}
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	r.kernel = m.kernel
	if err := m.register(driverPath, w.program(r)); err != nil {
		return nil, fmt.Errorf("register driver: %w", err)
	}
	exited, exitCode, err := m.launch(driverPath)
	if err != nil {
		return nil, fmt.Errorf("launch driver: %w", err)
	}
	watchdog := time.NewTimer(roundDeadline)
	defer watchdog.Stop()
	select {
	case <-r.parked:
	case <-exited:
		return nil, fmt.Errorf("driver exited with code %d during set-up", exitCode())
	case <-watchdog.C:
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		return nil, fmt.Errorf("round hung")
	}
	r.retainedMB = heapMB() - heap0
	if m.kernel != nil {
		r.residentMB = residentMB(m.kernel)
		if t != nil {
			r.layer = readLayers(w, r, m.kernel)
		}
	}
	close(r.release)
	select {
	case <-exited:
	case <-watchdog.C:
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		return nil, fmt.Errorf("round hung in teardown")
	}
	if code := exitCode(); code != 0 {
		return nil, fmt.Errorf("driver exited with code %d", code)
	}
	return r, nil
}
