package host

import (
	"strconv"
	"testing"
	"time"

	"graphene/internal/api"
)

func TestFaultKillAtSyscallGate(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	point := "sys." + strconv.Itoa(SysOpen)
	p.SetFaultPlan(NewFaultPlan().Rule(point, 2, FaultKill))

	if err := k.Gate(p, SysOpen, false); err != nil {
		t.Fatalf("first gate: %v", err)
	}
	if err := k.Gate(p, SysOpen, false); err != api.ESRCH {
		t.Fatalf("killing gate err = %v, want ESRCH", err)
	}
	if !p.Dead() || p.ExitCode() != 137 {
		t.Fatalf("dead=%v code=%d, want killed with 137", p.Dead(), p.ExitCode())
	}
	// Every later gate entry fails fast without touching the fault plan.
	if err := k.Gate(p, SysOpen, false); err != api.ESRCH {
		t.Fatalf("post-mortem gate err = %v, want ESRCH", err)
	}
}

func TestFaultDelayIsAbsorbed(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	s1, s2 := k.StreamPair(p1, p2)
	const d = 20 * time.Millisecond
	p1.SetFaultPlan(NewFaultPlan().DelayRule("stream.write", 1, d))

	start := time.Now()
	if _, err := s1.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < d {
		t.Fatalf("write returned after %v, want >= %v", took, d)
	}
	buf := make([]byte, 8)
	if n, _ := s2.Read(buf); string(buf[:n]) != "slow" {
		t.Fatal("delayed write did not arrive intact")
	}
}

func TestExitClosesListeners(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	if _, err := k.StreamListen(p1, "svc"); err != nil {
		t.Fatal(err)
	}
	p1.Exit(1)
	// A crashed listener's name is gone: dialers get connection-refused,
	// the signal IPC failover paths key on.
	if _, err := k.StreamConnect(p2, "svc"); err != api.ECONNREFUSED {
		t.Fatalf("connect to dead listener err = %v, want ECONNREFUSED", err)
	}
}

func TestExitUnsubscribesBroadcast(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	bc := k.BroadcastOf(p.SandboxID)
	if _, err := bc.Subscribe(p.ID); err != nil {
		t.Fatal(err)
	}
	p.Exit(0)
	for _, pid := range bc.Members() {
		if pid == p.ID {
			t.Fatal("dead picoprocess still subscribed to sandbox broadcast")
		}
	}
}
