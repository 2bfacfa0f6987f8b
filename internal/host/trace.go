package host

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Flight recorder: a per-picoprocess ring buffer of recent host and guest
// events — syscall entry/exit, RPC spans, fault-point fires, partition
// stalls — kept always-on so a chaos failure or invariant violation can be
// diagnosed from the recorded interleaving instead of reverse-engineered
// from counters. The ring is fixed-size (oldest events overwritten) and
// allocated on the first event: a picoprocess that records nothing holds no
// ring, one that records holds exactly the ring capacity, which the monitor
// caps per sandbox via the manifest's trace_buffer directive, and recording
// after the first event never allocates.
//
// Overhead budget: one recorded event is a level check (atomic load), a
// monotonic clock read, and a short critical section copying ~9 words into
// an allocated slot. The per-recorder mutex is deliberate — an
// uncontended Lock/Unlock is a single CAS pair (~20 ns measured), cheaper
// than publishing nine fields with atomic stores, and unlike a seqlock it
// stays visible to the race detector. Layers above keep hot-path cost down
// by sampling ultra-hot no-op RPCs (see internal/ipc) and by reserving
// per-gate and per-stream events for TraceVerbose.

// Tracing levels.
const (
	// TraceOff disables all recording (the 0-alloc, 0-clock-read fast path:
	// every instrumentation site bails on one atomic load).
	TraceOff int32 = 0
	// TraceOn (the default) records syscall shim entry/exit, RPC client and
	// server spans, fault-point fires, partition stalls, and election hops.
	TraceOn int32 = 1
	// TraceVerbose additionally records host syscall-gate entries and
	// per-stream read/write events — useful for replaying a transport-level
	// interleaving, too hot for the default level.
	TraceVerbose int32 = 2
)

// traceLevel is the process-wide tracing level (the whole simulated host
// lives in one OS process, so one knob governs every kernel instance).
var traceLevel atomic.Int32

func init() { traceLevel.Store(TraceOn) }

// SetTraceLevel sets the global tracing level and returns the previous one.
func SetTraceLevel(l int32) int32 { return traceLevel.Swap(l) }

// TraceLevel returns the current tracing level.
func TraceLevel() int32 { return traceLevel.Load() }

// TraceEnabled reports whether recording is on at all.
func TraceEnabled() bool { return traceLevel.Load() >= TraceOn }

// TraceVerboseEnabled reports whether verbose (gate/stream) events record.
func TraceVerboseEnabled() bool { return traceLevel.Load() >= TraceVerbose }

// traceBase anchors event timestamps: all timestamps are monotonic
// nanoseconds since process start, which reads ~2x faster than wall-clock
// time and merges cleanly across picoprocesses (one OS process, one clock).
var traceBase = time.Now()

// TraceNow returns the current trace timestamp (ns since trace epoch).
func TraceNow() int64 { return int64(time.Since(traceBase)) }

// TraceStart returns a start timestamp for latency measurement, or 0 when
// tracing is off — instrumentation sites pass the value to their exit hook,
// which skips recording (and the second clock read) on 0.
func TraceStart() int64 {
	if traceLevel.Load() == TraceOff {
		return 0
	}
	return TraceNow()
}

// EventKind discriminates flight-recorder events.
type EventKind uint8

// Flight-recorder event kinds.
const (
	// EvSyscall is a libLinux syscall shim entry/exit pair recorded at exit:
	// Code=syscall nr, Arg=primary argument digest, Errno, Dur=latency.
	EvSyscall EventKind = iota + 1
	// EvGate is a host syscall-gate entry (TraceVerbose only): Code=nr.
	EvGate
	// EvRPCCall is a client-side RPC span recorded at completion:
	// Code=MsgType, Dur=round-trip latency, Trace/Span/Parent link the tree.
	EvRPCCall
	// EvRPCServe is a server-side RPC dispatch: Code=MsgType, Parent=the
	// caller's span (from the frame), Span=this dispatch's own span.
	EvRPCServe
	// EvStreamRead / EvStreamWrite are transport events (TraceVerbose only):
	// Arg=bytes moved.
	EvStreamRead
	EvStreamWrite
	// EvFault is a fault-plan rule firing: Arg=index into the recorder's
	// point-name intern table (see FlightRecorder.PointName).
	EvFault
	// EvPartitionStall is a stream read stalled behind a partition:
	// Arg=peer host PID, Dur=how long the stall lasted.
	EvPartitionStall
	// EvElection is a leader-failover hop on the RPC path: Arg=the failure
	// epoch observed, Trace links it into the operation that rode through.
	EvElection
	// EvRingBypass is a kernel-bypass ring lifecycle event (grant, map,
	// revoke — the datapath itself is untraced to stay allocation-free):
	// Code=1 grant, 2 map, 3 revoke/reclaim; Arg=segment ID.
	EvRingBypass
)

var eventKindNames = [...]string{
	EvSyscall: "syscall", EvGate: "gate",
	EvRPCCall: "rpc-call", EvRPCServe: "rpc-serve",
	EvStreamRead: "stream-read", EvStreamWrite: "stream-write",
	EvFault: "fault", EvPartitionStall: "partition-stall",
	EvElection: "election", EvRingBypass: "ring-bypass",
}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// TraceEvent is one flight-recorder entry. Seq is a per-recorder sequence
// number (dense, never reused); TS is nanoseconds since the trace epoch
// (TraceNow), 0 when the site skipped the clock read.
type TraceEvent struct {
	Seq    uint64
	TS     int64
	Kind   EventKind
	Code   uint32
	Arg    uint64
	Errno  int32
	Dur    int64
	Trace  uint64
	Span   uint64
	Parent uint64
}

// DefaultTraceRing is the default per-picoprocess ring capacity (events).
// At ~100 bytes per slot this bounds a recorder near 200 KiB.
const DefaultTraceRing = 2048

// FlightRecorder is a fixed-capacity ring of TraceEvents plus a small
// intern table for fault-point names (strings cannot live in fixed slots
// without allocating; fault fires are rare, so interning under the same
// mutex is fine).
type FlightRecorder struct {
	mu       sync.Mutex
	capacity int
	slots    []TraceEvent // nil until the first Record, then capacity long
	next     uint64       // total events ever recorded
	points   []string
	pointIdx map[string]uint64
}

// NewFlightRecorder creates a recorder holding up to capacity events
// (non-positive capacity falls back to DefaultTraceRing).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &FlightRecorder{capacity: capacity}
}

// Record appends ev to the ring, assigning its sequence number. The first
// event allocates the ring, later ones never allocate; the oldest event is
// overwritten when the ring is full. Safe to call on a nil recorder (no-op).
func (r *FlightRecorder) Record(ev TraceEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.slots == nil {
		r.slots = make([]TraceEvent, r.capacity)
	}
	r.next++
	ev.Seq = r.next
	r.slots[(r.next-1)%uint64(r.capacity)] = ev
	r.mu.Unlock()
}

// ringBytes is the memory the ring holds: 0 until the first event.
func (r *FlightRecorder) ringBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots) * int(unsafe.Sizeof(TraceEvent{}))
}

// internPoint maps a fault-point name to a stable index for EvFault's Arg.
func (r *FlightRecorder) internPoint(point string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx, ok := r.pointIdx[point]; ok {
		return idx
	}
	if r.pointIdx == nil {
		r.pointIdx = make(map[string]uint64)
	}
	idx := uint64(len(r.points))
	r.points = append(r.points, point)
	r.pointIdx[point] = idx
	return idx
}

// PointName resolves an EvFault Arg back to the fault-point name.
func (r *FlightRecorder) PointName(idx uint64) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx < uint64(len(r.points)) {
		return r.points[idx]
	}
	return ""
}

// Events snapshots the ring's contents, oldest first.
func (r *FlightRecorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(r.capacity)
	lo := uint64(0)
	if r.next > n {
		lo = r.next - n
	}
	out := make([]TraceEvent, 0, r.next-lo)
	for s := lo; s < r.next; s++ {
		out = append(out, r.slots[s%n])
	}
	return out
}

// Dropped reports how many events have been overwritten by ring wrap.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(r.capacity); r.next > n {
		return r.next - n
	}
	return 0
}

// Cap returns the ring capacity in events.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.capacity
}

// --- Picoprocess integration ---

// TraceRecorder returns the picoprocess's flight recorder (nil when the
// sandbox disabled recording via trace_buffer 0).
func (p *Picoprocess) TraceRecorder() *FlightRecorder { return p.rec.Load() }

// SetTraceRing replaces the picoprocess's recorder with one holding n
// events; n <= 0 removes the recorder entirely (the sandbox opted out).
// Children created afterwards inherit the capacity.
func (p *Picoprocess) SetTraceRing(n int) {
	p.traceRing.Store(int64(n))
	if n <= 0 {
		p.rec.Store(nil)
		return
	}
	p.rec.Store(NewFlightRecorder(n))
}

// TraceRecord records ev into the picoprocess's recorder, if any. Callers
// gate on the trace level themselves so disabled tracing costs one atomic
// load before reaching here.
func (p *Picoprocess) TraceRecord(ev TraceEvent) {
	p.rec.Load().Record(ev)
}

// TraceFault records a fault-point fire (called from Fault, which is only
// reached when a plan is installed — chaos runs — so the extra interning
// cost never touches production paths).
func (p *Picoprocess) TraceFault(point string) {
	if !TraceEnabled() {
		return
	}
	r := p.rec.Load()
	if r == nil {
		return
	}
	idx := r.internPoint(point)
	r.Record(TraceEvent{TS: TraceNow(), Kind: EvFault, Arg: idx})
}

// --- Kernel integration ---

// retiredTraceCap bounds how many exited picoprocesses' recorders the
// kernel retains for post-mortem dumps (chaos kills produce exactly the
// picoprocesses whose last moments matter most).
const retiredTraceCap = 64

// ProcTrace is one picoprocess's flight-recorder snapshot.
type ProcTrace struct {
	PID       int
	SandboxID int
	Live      bool
	Dropped   uint64
	Events    []TraceEvent
	// Rec resolves interned fault-point names during rendering.
	Rec *FlightRecorder
}

// retiredRec is a dead picoprocess's recorder kept for dumps.
type retiredRec struct {
	pid     int
	sandbox int
	rec     *FlightRecorder
}

// retireRecorder moves a dead picoprocess's recorder to the kernel's
// bounded FIFO — the picoprocess lets go of it, so a stale *Picoprocess
// pins no ring — or drops it when it never recorded an event.
func (k *Kernel) retireRecorder(p *Picoprocess) {
	r := p.rec.Swap(nil)
	if r == nil || r.ringBytes() == 0 {
		return
	}
	rr := retiredRec{pid: p.ID, sandbox: p.SandboxID, rec: r}
	k.mu.Lock()
	if len(k.retired) < retiredTraceCap {
		k.retired = append(k.retired, rr)
	} else {
		// Shift down in place: re-slicing past the head would keep every
		// recorder ever retired reachable from the backing array.
		copy(k.retired, k.retired[1:])
		k.retired[retiredTraceCap-1] = rr
	}
	k.mu.Unlock()
}

// TraceSnapshots collects flight-recorder snapshots for every live
// picoprocess plus the retained recorders of recently exited ones, ordered
// by host PID (retired first on ties, which cannot happen: PIDs are unique).
func (k *Kernel) TraceSnapshots() []ProcTrace {
	k.mu.Lock()
	retired := append([]retiredRec(nil), k.retired...)
	procs := make([]*Picoprocess, 0, len(k.procs))
	for _, p := range k.procs {
		procs = append(procs, p)
	}
	k.mu.Unlock()

	out := make([]ProcTrace, 0, len(retired)+len(procs))
	for _, rr := range retired {
		out = append(out, ProcTrace{
			PID: rr.pid, SandboxID: rr.sandbox,
			Dropped: rr.rec.Dropped(), Events: rr.rec.Events(), Rec: rr.rec,
		})
	}
	for _, p := range procs {
		r := p.rec.Load()
		if r == nil {
			continue
		}
		out = append(out, ProcTrace{
			PID: p.ID, SandboxID: p.SandboxID, Live: true,
			Dropped: r.Dropped(), Events: r.Events(), Rec: r,
		})
	}
	sortProcTraces(out)
	return out
}

func sortProcTraces(ts []ProcTrace) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].PID < ts[j-1].PID; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// --- syscall naming (dump rendering) ---

// syscallNames maps host syscall numbers to names for dumps. Covers the
// PAL set plus the guest-personality numbers the libLinux shim records.
var syscallNames = map[int]string{
	SysRead: "read", SysWrite: "write", SysOpen: "open", SysClose: "close",
	SysStat: "stat", SysFstat: "fstat", SysPoll: "poll", SysLseek: "lseek",
	SysMmap: "mmap", SysMprotect: "mprotect", SysMunmap: "munmap", SysBrk: "brk",
	SysRtSigaction: "rt_sigaction", SysRtSigprocmask: "rt_sigprocmask",
	SysRtSigreturn: "rt_sigreturn", SysIoctl: "ioctl", SysSchedYield: "sched_yield",
	SysDup: "dup", SysNanosleep: "nanosleep", SysGetpid: "getpid",
	SysSocket: "socket", SysConnect: "connect", SysAccept: "accept",
	SysSendto: "sendto", SysRecvfrom: "recvfrom", SysShutdown: "shutdown",
	SysBind: "bind", SysListen: "listen", SysSocketpair: "socketpair",
	SysClone: "clone", SysFork: "fork", SysVfork: "vfork", SysExecve: "execve",
	SysExit: "exit", SysWait4: "wait4", SysKill: "kill", SysFcntl: "fcntl",
	SysFsync: "fsync", SysTruncate: "truncate", SysGetdents: "getdents",
	SysRename: "rename", SysMkdir: "mkdir", SysRmdir: "rmdir", SysUnlink: "unlink",
	SysGettimeofday: "gettimeofday", SysPrctl: "prctl", SysArchPrctl: "arch_prctl",
	SysGettid: "gettid", SysFutex: "futex", SysExitGroup: "exit_group",
	SysTgkill: "tgkill", SysOpenat: "openat", SysPipe2: "pipe2",
	SysGetrandom: "getrandom",
	SysSemget:    "semget", SysSemop: "semop", SysSemctl: "semctl",
	SysMsgget: "msgget", SysMsgsnd: "msgsnd", SysMsgrcv: "msgrcv",
	SysMsgctl: "msgctl", SysSetpgid: "setpgid", SysGetpgid: "getpgid",
}

// SyscallName names a host syscall number for dump rendering.
func SyscallName(nr int) string {
	if n, ok := syscallNames[nr]; ok {
		return n
	}
	return "sys_" + fmt.Sprint(nr)
}
