package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/liblinux"
)

// Tracing from the outside. Nothing under internal/ is edited: spans are
// recorded by two decorators this package owns — tracedOS around every
// api.OS handle a program is given (layer "liblinux": the time a guest
// spends inside a libLinux call), and tracedPolicy around the reference
// monitor (layer "monitor": the time the host spends in a policy check) —
// plus the unit and step spans the workload drivers open themselves
// (layer "bench"). The hierarchy is unit → step → liblinux call → monitor
// check, so a layer's self time is its span time minus the child spans it
// covers, and what a unit spends outside any call is left visible as
// bench.unattributed_frac.

// Layers a span can belong to.
const (
	layerBench    = "bench"
	layerLiblinux = "liblinux"
	layerMonitor  = "monitor"
)

// span is one traced interval. Start and End are nanoseconds on the Go
// monotonic clock since the tracer was created. Parent is the ID of the
// span that caused this one (0 = none); Unit is the workload unit that was
// current when it began, shared by every span of one unit.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Unit   int32  `json:"unit"`
	PID    int32  `json:"pid"` // host picoprocess ID, 0 for the harness
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"`
}

// tracer keeps the spans of one round in memory. One mutex covers the
// slice and the open-call table; a span's clock reads sit inside begin's
// critical section and before end's, so lock waits are never counted as
// part of the interval being measured.
type tracer struct {
	epoch time.Time
	unit  atomic.Int32 // current workload unit

	mu    sync.Mutex
	spans []span
	// open lists, per host PID, the liblinux calls in flight, innermost
	// last: a monitor check is parented to the innermost one of the
	// picoprocess it is checking. Exact for single-threaded guests; with
	// several threads in one picoprocess it names the most recent call.
	open map[int32][]int32
	// gauges undoes the Helper.RegisterGauges calls made for this round's
	// libOS instances.
	gauges []func()
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int32][]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(layer, name string, pid, parent int32) int32 {
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	if layer == layerMonitor && parent == 0 {
		if st := t.open[pid]; len(st) > 0 {
			parent = st[len(st)-1]
		}
	}
	if layer == layerLiblinux {
		t.open[pid] = append(t.open[pid], id)
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Unit: t.unit.Load(), PID: pid,
		Layer: layer, Name: name, Start: t.now(),
	})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32, failed bool) {
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Failed = now, failed
	if s.Layer == layerLiblinux {
		st := t.open[s.PID]
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == id {
				t.open[s.PID] = append(st[:i], st[i+1:]...)
				break
			}
		}
	}
	t.mu.Unlock()
}

// snapshot returns the recorded spans. Calls that never returned (a
// server parked in Accept when the round ended, a process that exited
// inside Exit) are closed at their start so they carry no time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End == 0 {
			out[i].End = out[i].Start
		}
	}
	return out
}

// writeSpans writes the spans of timed units as JSON, at most limit of
// them so a run that recorded millions of calls leaves a file a person
// can still open; the header says how many were recorded.
func writeSpans(path string, workload string, spans []span, limit int) error {
	kept := make([]span, 0, limit)
	for _, s := range spans {
		if s.Unit >= 0 && len(kept) < limit {
			kept = append(kept, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Recorded int    `json:"spans_recorded"`
		Written  int    `json:"spans_written"`
		Spans    []span `json:"spans"`
	}{workload, len(spans), len(kept), kept})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedProgram wraps prog so it (and, through Fork, its children) sees
// only traced handles. Every program of the app suite is registered
// through this, so sh, the coreutils and the fleet are covered too.
func tracedProgram(t *tracer, prog api.Program) api.Program {
	return func(p api.OS, argv []string) int {
		return prog(newTracedOS(t, p), argv)
	}
}

// tracedOS forwards every api.OS call — and the optional Poller,
// Threader, ConnPasser, FaultPointer, Elector and SandboxCreator surfaces
// — to inner, recording one liblinux span per call. parent is the span
// calls through this handle are caused by: the driver points it at its
// current step; handles of other processes leave it 0.
type tracedOS struct {
	inner  api.OS
	t      *tracer
	pid    int32
	parent int32
}

// newTracedOS decorates p. A libLinux instance also publishes its IPC
// helper's gauges (ring hits, leases, election epoch) for the round.
func newTracedOS(t *tracer, p api.OS) *tracedOS {
	o := &tracedOS{inner: p, t: t}
	if lp, ok := p.(*liblinux.Process); ok {
		o.pid = int32(lp.PAL().Proc().ID)
		undo := lp.Helper().RegisterGauges()
		t.mu.Lock()
		t.gauges = append(t.gauges, undo)
		t.mu.Unlock()
	}
	return o
}

// unregisterGauges removes the round's gauges from the metrics registry.
func (t *tracer) unregisterGauges() {
	t.mu.Lock()
	undo := t.gauges
	t.gauges = nil
	t.mu.Unlock()
	for _, fn := range undo {
		fn()
	}
}

// unwrap returns the personality's own handle behind p.
func unwrap(p api.OS) api.OS {
	if tp, ok := p.(*tracedOS); ok {
		return tp.inner
	}
	return p
}

func (o *tracedOS) in(name string) int32  { return o.t.begin(layerLiblinux, name, o.pid, o.parent) }
func (o *tracedOS) out(id int32, e error) { o.t.end(id, e != nil) }

func (o *tracedOS) Getpid() int {
	id := o.in("Getpid")
	v := o.inner.Getpid()
	o.out(id, nil)
	return v
}

func (o *tracedOS) Getppid() int {
	id := o.in("Getppid")
	v := o.inner.Getppid()
	o.out(id, nil)
	return v
}

func (o *tracedOS) Fork(child func(api.OS)) (int, error) {
	id := o.in("Fork")
	pid, err := o.inner.Fork(func(c api.OS) { child(newTracedOS(o.t, c)) })
	o.out(id, err)
	return pid, err
}

// Exec and Exit unwind by panic on success, so their spans stay open and
// are closed with no time by snapshot.
func (o *tracedOS) Exec(path string, argv []string) error {
	id := o.in("Exec")
	err := o.inner.Exec(path, argv)
	o.out(id, err)
	return err
}

func (o *tracedOS) Spawn(path string, argv []string) (int, error) {
	id := o.in("Spawn")
	pid, err := o.inner.Spawn(path, argv)
	o.out(id, err)
	return pid, err
}

func (o *tracedOS) Wait(pid int) (api.WaitResult, error) {
	id := o.in("Wait")
	r, err := o.inner.Wait(pid)
	o.out(id, err)
	return r, err
}

func (o *tracedOS) Exit(code int) {
	o.in("Exit")
	o.inner.Exit(code)
}

func (o *tracedOS) Kill(pid int, sig api.Signal) error {
	id := o.in("Kill")
	err := o.inner.Kill(pid, sig)
	o.out(id, err)
	return err
}

func (o *tracedOS) Sigaction(sig api.Signal, handler api.SigHandler, disposition string) error {
	id := o.in("Sigaction")
	err := o.inner.Sigaction(sig, handler, disposition)
	o.out(id, err)
	return err
}

func (o *tracedOS) SignalsDrain() {
	id := o.in("SignalsDrain")
	o.inner.SignalsDrain()
	o.out(id, nil)
}

func (o *tracedOS) Open(path string, flags int, mode api.FileMode) (int, error) {
	id := o.in("Open")
	fd, err := o.inner.Open(path, flags, mode)
	o.out(id, err)
	return fd, err
}

func (o *tracedOS) Close(fd int) error {
	id := o.in("Close")
	err := o.inner.Close(fd)
	o.out(id, err)
	return err
}

func (o *tracedOS) Read(fd int, buf []byte) (int, error) {
	id := o.in("Read")
	n, err := o.inner.Read(fd, buf)
	o.out(id, err)
	return n, err
}

func (o *tracedOS) Write(fd int, buf []byte) (int, error) {
	id := o.in("Write")
	n, err := o.inner.Write(fd, buf)
	o.out(id, err)
	return n, err
}

func (o *tracedOS) Lseek(fd int, offset int64, whence int) (int64, error) {
	id := o.in("Lseek")
	n, err := o.inner.Lseek(fd, offset, whence)
	o.out(id, err)
	return n, err
}

func (o *tracedOS) Stat(path string) (api.Stat, error) {
	id := o.in("Stat")
	st, err := o.inner.Stat(path)
	o.out(id, err)
	return st, err
}

func (o *tracedOS) Fstat(fd int) (api.Stat, error) {
	id := o.in("Fstat")
	st, err := o.inner.Fstat(fd)
	o.out(id, err)
	return st, err
}

func (o *tracedOS) Unlink(path string) error {
	id := o.in("Unlink")
	err := o.inner.Unlink(path)
	o.out(id, err)
	return err
}

func (o *tracedOS) Mkdir(path string, mode api.FileMode) error {
	id := o.in("Mkdir")
	err := o.inner.Mkdir(path, mode)
	o.out(id, err)
	return err
}

func (o *tracedOS) ReadDir(path string) ([]api.DirEnt, error) {
	id := o.in("ReadDir")
	ents, err := o.inner.ReadDir(path)
	o.out(id, err)
	return ents, err
}

func (o *tracedOS) Rename(oldPath, newPath string) error {
	id := o.in("Rename")
	err := o.inner.Rename(oldPath, newPath)
	o.out(id, err)
	return err
}

func (o *tracedOS) Chdir(path string) error {
	id := o.in("Chdir")
	err := o.inner.Chdir(path)
	o.out(id, err)
	return err
}

func (o *tracedOS) Getcwd() (string, error) {
	id := o.in("Getcwd")
	s, err := o.inner.Getcwd()
	o.out(id, err)
	return s, err
}

func (o *tracedOS) Dup2(oldFD, newFD int) (int, error) {
	id := o.in("Dup2")
	fd, err := o.inner.Dup2(oldFD, newFD)
	o.out(id, err)
	return fd, err
}

func (o *tracedOS) Pipe() (int, int, error) {
	id := o.in("Pipe")
	r, w, err := o.inner.Pipe()
	o.out(id, err)
	return r, w, err
}

func (o *tracedOS) Brk(addr uint64) (uint64, error) {
	id := o.in("Brk")
	v, err := o.inner.Brk(addr)
	o.out(id, err)
	return v, err
}

func (o *tracedOS) Mmap(addr uint64, length uint64, prot int) (uint64, error) {
	id := o.in("Mmap")
	v, err := o.inner.Mmap(addr, length, prot)
	o.out(id, err)
	return v, err
}

func (o *tracedOS) Munmap(addr uint64, length uint64) error {
	id := o.in("Munmap")
	err := o.inner.Munmap(addr, length)
	o.out(id, err)
	return err
}

func (o *tracedOS) MemWrite(addr uint64, data []byte) error {
	id := o.in("MemWrite")
	err := o.inner.MemWrite(addr, data)
	o.out(id, err)
	return err
}

func (o *tracedOS) MemRead(addr uint64, buf []byte) error {
	id := o.in("MemRead")
	err := o.inner.MemRead(addr, buf)
	o.out(id, err)
	return err
}

func (o *tracedOS) Msgget(key int, flags int) (int, error) {
	id := o.in("Msgget")
	v, err := o.inner.Msgget(key, flags)
	o.out(id, err)
	return v, err
}

func (o *tracedOS) Msgsnd(qid int, mtype int64, data []byte, flags int) error {
	id := o.in("Msgsnd")
	err := o.inner.Msgsnd(qid, mtype, data, flags)
	o.out(id, err)
	return err
}

func (o *tracedOS) Msgrcv(qid int, mtype int64, buf []byte, flags int) (int64, []byte, error) {
	id := o.in("Msgrcv")
	mt, data, err := o.inner.Msgrcv(qid, mtype, buf, flags)
	o.out(id, err)
	return mt, data, err
}

func (o *tracedOS) MsgctlRmid(qid int) error {
	id := o.in("MsgctlRmid")
	err := o.inner.MsgctlRmid(qid)
	o.out(id, err)
	return err
}

func (o *tracedOS) Semget(key int, nsems int, flags int) (int, error) {
	id := o.in("Semget")
	v, err := o.inner.Semget(key, nsems, flags)
	o.out(id, err)
	return v, err
}

func (o *tracedOS) Semop(sid int, ops []api.SemBuf) error {
	id := o.in("Semop")
	err := o.inner.Semop(sid, ops)
	o.out(id, err)
	return err
}

func (o *tracedOS) SemctlRmid(sid int) error {
	id := o.in("SemctlRmid")
	err := o.inner.SemctlRmid(sid)
	o.out(id, err)
	return err
}

func (o *tracedOS) Listen(addr api.SockAddr) (int, error) {
	id := o.in("Listen")
	fd, err := o.inner.Listen(addr)
	o.out(id, err)
	return fd, err
}

func (o *tracedOS) Accept(fd int) (int, error) {
	id := o.in("Accept")
	c, err := o.inner.Accept(fd)
	o.out(id, err)
	return c, err
}

func (o *tracedOS) Connect(addr api.SockAddr) (int, error) {
	id := o.in("Connect")
	fd, err := o.inner.Connect(addr)
	o.out(id, err)
	return fd, err
}

func (o *tracedOS) Gettimeofday() (int64, error) {
	id := o.in("Gettimeofday")
	v, err := o.inner.Gettimeofday()
	o.out(id, err)
	return v, err
}

func (o *tracedOS) GetRandom(buf []byte) (int, error) {
	id := o.in("GetRandom")
	n, err := o.inner.GetRandom(buf)
	o.out(id, err)
	return n, err
}

func (o *tracedOS) Getenv(key string) string {
	id := o.in("Getenv")
	v := o.inner.Getenv(key)
	o.out(id, nil)
	return v
}

func (o *tracedOS) Setenv(key, value string) {
	id := o.in("Setenv")
	o.inner.Setenv(key, value)
	o.out(id, nil)
}

func (o *tracedOS) ProcSelfRoot() string {
	id := o.in("ProcSelfRoot")
	v := o.inner.ProcSelfRoot()
	o.out(id, nil)
	return v
}

// The optional surfaces. A personality that lacks one answers ENOSYS (or
// the interface's documented no-op), which is what an application probing
// with a type assertion would fall back to anyway; all three shipped
// personalities implement every one but SandboxCreate.

func (o *tracedOS) Poll(fds []int, timeoutMicros int64) (int, error) {
	x, ok := o.inner.(api.Poller)
	if !ok {
		return 0, api.ENOSYS
	}
	id := o.in("Poll")
	i, err := x.Poll(fds, timeoutMicros)
	// A timeout is how guests sleep, not a failed operation.
	o.t.end(id, err != nil && err != api.ETIMEDOUT)
	return i, err
}

func (o *tracedOS) SpawnThread(fn func()) error {
	x, ok := o.inner.(api.Threader)
	if !ok {
		return api.ENOSYS
	}
	id := o.in("SpawnThread")
	err := x.SpawnThread(fn)
	o.out(id, err)
	return err
}

func (o *tracedOS) PassConnection(overFD, connFD int) error {
	x, ok := o.inner.(api.ConnPasser)
	if !ok {
		return api.ENOSYS
	}
	id := o.in("PassConnection")
	err := x.PassConnection(overFD, connFD)
	// EAGAIN is a full dispatch pipe: flow control the caller retries.
	o.t.end(id, err != nil && err != api.EAGAIN)
	return err
}

func (o *tracedOS) ReceiveConnection(overFD int) (int, error) {
	x, ok := o.inner.(api.ConnPasser)
	if !ok {
		return 0, api.ENOSYS
	}
	id := o.in("ReceiveConnection")
	fd, err := x.ReceiveConnection(overFD)
	o.out(id, err)
	return fd, err
}

func (o *tracedOS) FaultPoint(name string) int {
	x, ok := o.inner.(api.FaultPointer)
	if !ok {
		return 0
	}
	id := o.in("FaultPoint")
	v := x.FaultPoint(name)
	o.out(id, nil)
	return v
}

func (o *tracedOS) ElectEpoch() (int64, error) {
	x, ok := o.inner.(api.Elector)
	if !ok {
		return 0, api.ENOSYS
	}
	id := o.in("ElectEpoch")
	v, err := x.ElectEpoch()
	o.out(id, err)
	return v, err
}

func (o *tracedOS) SandboxCreate(fsView []string) error {
	x, ok := o.inner.(api.SandboxCreator)
	if !ok {
		return api.ENOSYS
	}
	id := o.in("SandboxCreate")
	err := x.SandboxCreate(fsView)
	o.out(id, err)
	return err
}

// tracedPolicy forwards every host.Policy call to the real monitor,
// recording one monitor span per check. The membership callbacks are
// forwarded untimed: they are bookkeeping, not mediation.
type tracedPolicy struct {
	inner host.Policy
	t     *tracer
}

func (m tracedPolicy) check(name string, proc *host.Picoprocess, fn func() error) error {
	id := m.t.begin(layerMonitor, name, int32(proc.ID), 0)
	err := fn()
	m.t.end(id, err != nil)
	return err
}

func (m tracedPolicy) CheckOpen(proc *host.Picoprocess, path string, write bool) error {
	return m.check("CheckOpen", proc, func() error { return m.inner.CheckOpen(proc, path, write) })
}

func (m tracedPolicy) TranslatePath(proc *host.Picoprocess, path string) (string, error) {
	var out string
	err := m.check("TranslatePath", proc, func() (err error) {
		out, err = m.inner.TranslatePath(proc, path)
		return err
	})
	return out, err
}

func (m tracedPolicy) CheckStreamConnect(proc *host.Picoprocess, ownerPID int) error {
	return m.check("CheckStreamConnect", proc, func() error { return m.inner.CheckStreamConnect(proc, ownerPID) })
}

func (m tracedPolicy) CheckBulkIPC(proc *host.Picoprocess, creatorPID int) error {
	return m.check("CheckBulkIPC", proc, func() error { return m.inner.CheckBulkIPC(proc, creatorPID) })
}

func (m tracedPolicy) CheckProcessCreate(parent *host.Picoprocess) error {
	return m.check("CheckProcessCreate", parent, func() error { return m.inner.CheckProcessCreate(parent) })
}

func (m tracedPolicy) CheckNetBind(proc *host.Picoprocess, addr api.SockAddr) error {
	return m.check("CheckNetBind", proc, func() error { return m.inner.CheckNetBind(proc, addr) })
}

func (m tracedPolicy) CheckNetConnect(proc *host.Picoprocess, addr api.SockAddr) error {
	return m.check("CheckNetConnect", proc, func() error { return m.inner.CheckNetConnect(proc, addr) })
}

func (m tracedPolicy) OnProcessCreate(parent, child *host.Picoprocess, newSandbox bool) {
	m.inner.OnProcessCreate(parent, child, newSandbox)
}

func (m tracedPolicy) OnProcessExit(proc *host.Picoprocess) { m.inner.OnProcessExit(proc) }
