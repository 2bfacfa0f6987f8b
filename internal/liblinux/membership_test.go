package liblinux

import (
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/apps"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/metrics"
	"graphene/internal/monitor"
)

// The membership rule seen from libLinux (DESIGN.md "Membership
// lifecycle"): a forked or spawned child joins without telling the leader,
// leaves without telling it unless they spoke, and its parent's PID table
// forgets it at wait().

// servedBy counts the frames of one type a picoprocess's ipc dispatcher has
// served since plan — an empty fault plan, which fires nothing and counts
// every point it is asked about — was installed on it.
func servedBy(plan *host.FaultPlan, t ipc.MsgType) int {
	return plan.Hits("rpc." + t.String() + ".enter")
}

// TestForkedChildMakesNoLeaderTraffic: 200 × fork+exit+wait and 200 ×
// Spawn("/bin/true") from a parent that is not the leader reach the leader
// only as the parent's own PID-batch refills, over the parent's one
// connection.
func TestForkedChildMakesNoLeaderTraffic(t *testing.T) {
	rt, man := testEnv(t)
	if err := apps.RegisterAll(rt.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	host.DumpTracesOnFailure(t, rt.Kernel())
	const cycles = 200
	claimHist := metrics.Default.Histogram("rpc.MsgNSClaim")
	byeHist := metrics.Default.Histogram("rpc.MsgBye")

	code := run(t, rt, man, func(p api.OS, _ []string) int {
		leader := p.(*Process)
		plan := host.NewFaultPlan()
		leader.PAL().Proc().SetFaultPlan(plan)
		pid, err := p.Fork(func(c api.OS) {
			parent := c.(*Process)
			cycle := func() bool {
				pid, err := c.Fork(func(g api.OS) { g.Exit(3) })
				if err != nil {
					t.Errorf("fork: %v", err)
					return false
				}
				if res, err := c.Wait(pid); err != nil || res.ExitCode != 3 {
					t.Errorf("wait(fork): %+v, %v", res, err)
					return false
				}
				if pid, err = c.Spawn("/bin/true", []string{"/bin/true"}); err != nil {
					t.Errorf("spawn: %v", err)
					return false
				}
				if res, err := c.Wait(pid); err != nil || res.ExitCode != 0 {
					t.Errorf("wait(spawn): %+v, %v", res, err)
					return false
				}
				return true
			}
			// The parent's own first need: its PID batch, and with it its
			// one connection to the leader.
			if !cycle() {
				c.Exit(1)
			}
			accepted := leader.Helper().AcceptedConns()
			localPIDs := parent.Helper().LocalPIDs()
			claims, byes := claimHist.Count(), byeHist.Count()
			reaped := ipc.ReadFailoverCounters().MembersReaped
			served := map[ipc.MsgType]int{}
			for _, mt := range []ipc.MsgType{ipc.MsgNSAlloc, ipc.MsgNSClaim, ipc.MsgBye, ipc.MsgNSQuery, ipc.MsgExitNotify} {
				served[mt] = servedBy(plan, mt)
			}
			if accepted != 1 {
				t.Errorf("leader holds %d accepted conns before the loop, want the parent's 1", accepted)
			}

			for i := 0; i < cycles; i++ {
				if !cycle() {
					c.Exit(1)
				}
				if got := leader.Helper().AcceptedConns(); got != accepted {
					t.Errorf("cycle %d: leader holds %d accepted conns, want %d", i, got, accepted)
					c.Exit(1)
				}
			}

			if got := parent.Helper().LocalPIDs(); got != localPIDs {
				t.Errorf("parent's PID table holds %d entries after the loop, %d before", got, localPIDs)
			}
			if got := claimHist.Count(); got != claims {
				t.Errorf("rpc.MsgNSClaim observed %d more calls", got-claims)
			}
			if got := byeHist.Count(); got != byes {
				t.Errorf("rpc.MsgBye observed %d more calls", got-byes)
			}
			if d := ipc.ReadFailoverCounters().MembersReaped - reaped; d != 0 {
				t.Errorf("%d members reaped", d)
			}
			// 2 children per cycle out of batches of ipc.PIDBatchSize, the
			// first of which the warm-up cycle had drawn 2 from.
			wantRefills := (2*cycles + 2) / ipc.PIDBatchSize
			for mt, before := range served {
				want := 0
				if mt == ipc.MsgNSAlloc {
					want = wantRefills
				}
				if got := servedBy(plan, mt) - before; got != want {
					t.Errorf("leader served %d %v frames during the loop, want %d", got, mt, want)
				}
			}
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
			return 2
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("driver failed at step %d", code)
	}
}

// TestSignalGrandchildResolvesThroughParent: a third process signals a
// grandchild of the leader. No claim ever told the leader where that PID
// lives; the lookup goes leader → owner of the range the PID came from
// (the grandchild's parent) → that parent's table. Once the parent has
// reaped it, the PID is gone from the table and kill answers ESRCH.
func TestSignalGrandchildResolvesThroughParent(t *testing.T) {
	rt, man := testEnv(t)
	host.DumpTracesOnFailure(t, rt.Kernel())
	code := run(t, rt, man, func(p api.OS, _ []string) int {
		leaderPlan, parentPlan := host.NewFaultPlan(), host.NewFaultPlan()
		p.(*Process).PAL().Proc().SetFaultPlan(leaderPlan)
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		grandchild := make(chan int, 1)
		reapedCh := make(chan struct{})
		done := make(chan struct{})
		parentPID, err := p.Fork(func(c api.OS) {
			c.(*Process).PAL().Proc().SetFaultPlan(parentPlan)
			gpid, err := c.Fork(func(g api.OS) {
				_ = g.Close(w)
				one := make([]byte, 1)
				_, _ = g.Read(r, one) // parked until the signal
				g.Exit(0)
			})
			if err != nil {
				c.Exit(1)
			}
			grandchild <- gpid
			res, err := c.Wait(gpid)
			if err != nil || res.Signaled != api.SIGTERM {
				t.Errorf("wait(grandchild): %+v, %v; want killed by SIGTERM", res, err)
			}
			if err := c.Kill(gpid, api.SIGTERM); api.ToErrno(err) != api.ESRCH {
				t.Errorf("parent's kill of its reaped child: %v, want ESRCH", err)
			}
			close(reapedCh)
			<-done
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		gpid := <-grandchild
		thirdPID, err := p.Fork(func(c api.OS) {
			if err := c.Kill(gpid, api.SIGTERM); err != nil {
				t.Errorf("kill(grandchild) from a third process: %v", err)
			}
			<-reapedCh
			// wait() returns on the exit notification, which the dying
			// process sends before its helper stops listening: ESRCH is
			// owed once it has, not the instant the parent has reaped.
			var last error
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if last = c.Kill(gpid, api.SIGTERM); api.ToErrno(last) == api.ESRCH {
					c.Exit(0)
				}
			}
			t.Errorf("kill of a reaped PID from a third process: %v, want ESRCH", last)
			c.Exit(0)
		})
		if err != nil {
			return 3
		}
		if res, err := p.Wait(thirdPID); err != nil || res.ExitCode != 0 {
			return 4
		}
		if got := servedBy(leaderPlan, ipc.MsgNSClaim); got != 0 {
			t.Errorf("leader served %d claims, want none on record", got)
		}
		if got := servedBy(leaderPlan, ipc.MsgNSQuery); got < 1 {
			t.Errorf("leader served %d PID queries, want the third process's", got)
		}
		if got := servedBy(parentPlan, ipc.MsgNSQuery); got != 1 {
			t.Errorf("range owner served %d PID queries, want 1", got)
		}
		close(done)
		if res, err := p.Wait(parentPID); err != nil || res.ExitCode != 0 {
			return 5
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("driver failed at step %d", code)
	}
}

// TestKillDeliveredNeverESRCH: kill(pid, SIGKILL) on a live child reports
// success, every time. The target starts exiting — and closing its helper's
// connections — while the signal RPC's reply is still on its way out; a
// delivered signal must not come back as "no such process" (ROADMAP 1a).
func TestKillDeliveredNeverESRCH(t *testing.T) {
	rt, man := testEnv(t)
	host.DumpTracesOnFailure(t, rt.Kernel())
	const rounds = 2000
	code := run(t, rt, man, func(p api.OS, _ []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		failed := 0
		for i := 0; i < rounds; i++ {
			pid, err := p.Fork(func(c api.OS) {
				_ = c.Close(w)
				one := make([]byte, 1)
				_, _ = c.Read(r, one) // blocks: the parent holds the write end
				c.Exit(0)
			})
			if err != nil {
				t.Errorf("round %d: fork: %v", i, err)
				return 2
			}
			if err := p.Kill(pid, api.SIGKILL); err != nil {
				failed++
				t.Errorf("round %d: kill(%d, SIGKILL) = %v", i, pid, err)
			}
			if res, err := p.Wait(pid); err != nil || res.Signaled != api.SIGKILL {
				t.Errorf("round %d: wait: %+v, %v", i, res, err)
				return 3
			}
			if failed > 5 {
				return 4
			}
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("driver failed at step %d", code)
	}
}

// BenchmarkForkExitWait times fork+exit+wait of a process with a resident
// heap of the given size and reports where the time goes: the parent's
// stages (create the picoprocess, stream the checkpoint sections, wait for
// the child to come up) and, overlapping them, the child's (restore as a
// whole, the bulk-IPC image map and the ipc helper join inside it, and the
// exit). Tracing is off, as in the repository benchmark's timed rounds.
func BenchmarkForkExitWait(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes uint64
	}{{"16KiB", 16 << 10}, {"8MiB", 8 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			defer host.SetTraceLevel(host.SetTraceLevel(host.TraceOff))
			k := host.NewKernel()
			m := monitor.New(k)
			man, err := monitor.ParseManifest("bench", testManifestText)
			if err != nil {
				b.Fatal(err)
			}
			rt := NewRuntime(k, m)
			var mu sync.Mutex
			stages := map[string]time.Duration{}
			rt.stageObs = func(stage string, d time.Duration) {
				mu.Lock()
				stages[stage] += d
				mu.Unlock()
			}
			forkExitWait := func(p api.OS) bool {
				pid, err := p.Fork(func(c api.OS) { c.Exit(0) })
				if err != nil {
					return false
				}
				_, err = p.Wait(pid)
				return err == nil
			}
			// settle waits for the last child's exit to finish: its exit
			// stage ends after wait() has returned in the parent.
			settle := func() {
				for deadline := time.Now().Add(5 * time.Second); k.Census().Procs != 1 && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
			}
			prog := func(p api.OS, _ []string) int {
				brk0, err := p.Brk(0)
				if err != nil {
					return 1
				}
				top, err := p.Brk(brk0 + size.bytes)
				if err != nil {
					return 1
				}
				for a := brk0; a < top; a += host.PageSize {
					if err := p.MemWrite(a, []byte{0xA5}); err != nil {
						return 1
					}
				}
				for i := 0; i < 16; i++ {
					if !forkExitWait(p) {
						return 2
					}
				}
				settle()
				mu.Lock()
				clear(stages)
				mu.Unlock()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !forkExitWait(p) {
						return 3
					}
				}
				b.StopTimer()
				settle()
				return 0
			}
			if err := rt.RegisterProgram("/bin/bench", prog); err != nil {
				b.Fatal(err)
			}
			res, err := rt.Launch(man, "/bin/bench", []string{"/bin/bench"})
			if err != nil {
				b.Fatal(err)
			}
			<-res.Done
			if res.ExitCode() != 0 {
				b.Fatalf("driver failed at step %d", res.ExitCode())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, stage := range []string{"create", "sections", "child-restore", "image-map", "helper-join", "wait-ready", "exit"} {
				b.ReportMetric(float64(stages[stage].Nanoseconds())/1e3/float64(b.N), stage+"-us")
			}
		})
	}
}
