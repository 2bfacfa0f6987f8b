package host

import "testing"

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(TraceEvent{Kind: EvSyscall, Code: uint32(i)})
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		wantCode := uint32(7 + i)
		if ev.Code != wantCode {
			t.Errorf("event %d: Code = %d, want %d (oldest-first order)", i, ev.Code, wantCode)
		}
		if ev.Seq != uint64(7+i) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, 7+i)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(TraceEvent{Kind: EvFault}) // must not panic
	if r.Events() != nil || r.Dropped() != 0 || r.Cap() != 0 || r.PointName(0) != "" {
		t.Fatal("nil recorder accessors must return zero values")
	}
}

func TestFlightRecorderInternPoints(t *testing.T) {
	r := NewFlightRecorder(8)
	a := r.internPoint("sys.1")
	b := r.internPoint("stream.write")
	a2 := r.internPoint("sys.1")
	if a != a2 {
		t.Fatalf("re-interning returned %d, want stable index %d", a2, a)
	}
	if a == b {
		t.Fatal("distinct points must get distinct indices")
	}
	if got := r.PointName(b); got != "stream.write" {
		t.Fatalf("PointName(%d) = %q, want %q", b, got, "stream.write")
	}
	if got := r.PointName(99); got != "" {
		t.Fatalf("PointName(out of range) = %q, want empty", got)
	}
}

func TestTraceLevelGating(t *testing.T) {
	prev := SetTraceLevel(TraceOff)
	defer SetTraceLevel(prev)
	if TraceEnabled() || TraceVerboseEnabled() {
		t.Fatal("TraceOff must disable both levels")
	}
	if TraceStart() != 0 {
		t.Fatal("TraceStart must return 0 when tracing is off")
	}
	SetTraceLevel(TraceOn)
	if !TraceEnabled() || TraceVerboseEnabled() {
		t.Fatal("TraceOn enables base, not verbose")
	}
	if TraceStart() == 0 {
		t.Fatal("TraceStart must return a nonzero timestamp when tracing is on")
	}
	SetTraceLevel(TraceVerbose)
	if !TraceVerboseEnabled() {
		t.Fatal("TraceVerbose enables verbose")
	}
}

func TestPicoprocessRecorderDefaults(t *testing.T) {
	k := NewKernel()
	p, err := k.CreateProcess(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r := p.TraceRecorder()
	if r == nil {
		t.Fatal("picoprocess must get a recorder by default")
	}
	if r.Cap() != DefaultTraceRing {
		t.Fatalf("default ring cap = %d, want %d", r.Cap(), DefaultTraceRing)
	}
}

func TestTraceRingInheritance(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	p.SetTraceRing(32)
	child, err := k.CreateProcess(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := child.TraceRecorder().Cap(); got != 32 {
		t.Fatalf("child ring cap = %d, want inherited 32", got)
	}

	// Disabling on the parent disables for later children too.
	p.SetTraceRing(-1)
	if p.TraceRecorder() != nil {
		t.Fatal("SetTraceRing(-1) must remove the recorder")
	}
	off, _ := k.CreateProcess(p, false)
	if off.TraceRecorder() != nil {
		t.Fatal("child of trace-disabled parent must not get a recorder")
	}
	// Recording into a disabled picoprocess is a safe no-op.
	off.TraceRecord(TraceEvent{Kind: EvSyscall})
}

func TestKernelTraceRingDefault(t *testing.T) {
	k := NewKernel()
	k.SetTraceRing(16)
	p, _ := k.CreateProcess(nil, false)
	if got := p.TraceRecorder().Cap(); got != 16 {
		t.Fatalf("ring cap = %d, want kernel default 16", got)
	}
	k.SetTraceRing(-1)
	q, _ := k.CreateProcess(nil, false)
	if q.TraceRecorder() != nil {
		t.Fatal("kernel SetTraceRing(-1) must disable recorders for new processes")
	}
}

func TestTraceFaultRecordsBeforeKill(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	p.SetFaultPlan(NewFaultPlan().Rule("sys.999", 1, FaultKill))
	p.Fault("sys.999")
	if !p.Dead() {
		t.Fatal("FaultKill must exit the picoprocess")
	}
	// The fire must be visible post-mortem via the retired recorder.
	snaps := k.TraceSnapshots()
	var found bool
	for _, s := range snaps {
		if s.PID != p.ID {
			continue
		}
		if s.Live {
			t.Fatal("dead picoprocess must snapshot as retired, not live")
		}
		for _, ev := range s.Events {
			if ev.Kind == EvFault && s.Rec.PointName(ev.Arg) == "sys.999" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("fault fire on a killed picoprocess must survive in the retired recorder")
	}
}

func TestTraceSnapshotsOrderAndRetirementBound(t *testing.T) {
	k := NewKernel()
	live, _ := k.CreateProcess(nil, false)
	live.TraceRecord(TraceEvent{TS: TraceNow(), Kind: EvSyscall, Code: uint32(SysGetpid)})

	// Retire more than the cap; only the newest retiredTraceCap that
	// recorded anything remain. A picoprocess that recorded nothing is not
	// retired and evicts nobody.
	ev := TraceEvent{Kind: EvSyscall, Code: uint32(SysGetpid)}
	firstDead, _ := k.CreateProcess(nil, false)
	firstDeadPID := firstDead.ID
	firstDead.TraceRecord(ev)
	firstDead.Exit(0)
	for i := 0; i < retiredTraceCap; i++ {
		p, _ := k.CreateProcess(nil, false)
		p.TraceRecord(ev)
		p.Exit(0)
		silent, _ := k.CreateProcess(nil, false)
		silent.Exit(0)
		if p.TraceRecorder() != nil || silent.TraceRecorder() != nil {
			t.Fatal("an exited picoprocess must let go of its recorder")
		}
	}
	if got := cap(k.retired); got > 2*retiredTraceCap {
		t.Fatalf("retired list's backing array holds %d slots, cap is %d", got, retiredTraceCap)
	}
	snaps := k.TraceSnapshots()
	retired := 0
	for _, s := range snaps {
		if !s.Live {
			retired++
			if s.PID == firstDeadPID {
				t.Fatal("oldest retired recorder should have been evicted")
			}
		}
	}
	if retired != retiredTraceCap {
		t.Fatalf("retained %d retired recorders, want %d", retired, retiredTraceCap)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].PID < snaps[i-1].PID {
			t.Fatalf("snapshots out of PID order at %d: %d after %d", i, snaps[i].PID, snaps[i-1].PID)
		}
	}
}

func TestSyscallName(t *testing.T) {
	if got := SyscallName(SysMsgget); got != "msgget" {
		t.Fatalf("SyscallName(SysMsgget) = %q", got)
	}
	if got := SyscallName(9999); got != "sys_9999" {
		t.Fatalf("SyscallName(9999) = %q", got)
	}
}

func TestEventKindString(t *testing.T) {
	if EvRPCCall.String() != "rpc-call" || EvPartitionStall.String() != "partition-stall" {
		t.Fatal("event kind names wrong")
	}
	if got := EventKind(200).String(); got != "EventKind(200)" {
		t.Fatalf("unknown kind = %q", got)
	}
}
