package native

import (
	"strconv"
	"testing"
	"time"

	"graphene/internal/api"
)

func launch(t *testing.T, k *Kernel, prog api.Program, argv ...string) int {
	t.Helper()
	if err := k.RegisterProgram("/bin/t", prog); err != nil {
		t.Fatal(err)
	}
	res, err := k.Launch("/bin/t", append([]string{"/bin/t"}, argv...))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-res.Done:
		return res.ExitCode()
	case <-time.After(30 * time.Second):
		t.Fatal("hung")
		return -1
	}
}

func TestForkSharesMemoryCOW(t *testing.T) {
	k := NewKernel()
	code := launch(t, k, func(p api.OS, argv []string) int {
		brk0, _ := p.Brk(0)
		p.Brk(brk0 + 4096)
		p.MemWrite(brk0, []byte("original"))
		pid, err := p.Fork(func(c api.OS) {
			buf := make([]byte, 8)
			if err := c.MemRead(brk0, buf); err != nil || string(buf) != "original" {
				c.Exit(101)
			}
			c.MemWrite(brk0, []byte("CHANGED!"))
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		if res, _ := p.Wait(pid); res.ExitCode != 0 {
			return 100 + res.ExitCode
		}
		buf := make([]byte, 8)
		if err := p.MemRead(brk0, buf); err != nil || string(buf) != "original" {
			return 2
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("failed at step %d", code)
	}
}

func TestSysVSurvivesCreator(t *testing.T) {
	// Kernel-resident System V state survives the creating process — the
	// reason Table 7 has no native "persistent" row.
	k := NewKernel()
	code := launch(t, k, func(p api.OS, argv []string) int {
		pid, err := p.Fork(func(c api.OS) {
			qid, err := c.Msgget(99, api.IPCCreat)
			if err != nil {
				c.Exit(101)
			}
			if err := c.Msgsnd(qid, 1, []byte("outlives me"), 0); err != nil {
				c.Exit(102)
			}
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		if res, _ := p.Wait(pid); res.ExitCode != 0 {
			return 100 + res.ExitCode
		}
		qid, err := p.Msgget(99, 0)
		if err != nil {
			return 2
		}
		_, data, err := p.Msgrcv(qid, 0, nil, 0)
		if err != nil || string(data) != "outlives me" {
			return 3
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("failed at step %d", code)
	}
}

func TestNativeProcListsAllProcesses(t *testing.T) {
	// Native /proc is global — the side channel Graphene closes (§6.6).
	k := NewKernel()
	code := launch(t, k, func(p api.OS, argv []string) int {
		hold := make(chan struct{})
		pid, err := p.Fork(func(c api.OS) {
			<-hold
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		fd, err := p.Open("/proc", api.ORdOnly, 0)
		if err != nil {
			return 2
		}
		buf := make([]byte, 256)
		n, _ := p.Read(fd, buf)
		listing := string(buf[:n])
		if listing == "" {
			return 3
		}
		// The child's PID must appear in the global listing.
		found := false
		want := strconv.Itoa(pid) + "\n"
		for i := 0; i+len(want) <= len(listing); i++ {
			if listing[i:i+len(want)] == want {
				found = true
			}
		}
		close(hold)
		p.Wait(pid)
		if !found {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("failed at step %d", code)
	}
}

func TestResidentBytesTracksImage(t *testing.T) {
	k := NewKernel()
	done := make(chan struct{})
	hold := make(chan struct{})
	if err := k.RegisterProgram("/bin/park", func(p api.OS, argv []string) int {
		close(done)
		<-hold
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	res, err := k.Launch("/bin/park", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	// The paper's native floor is 352 KB.
	if got := k.ResidentBytes(); got < 300*1024 || got > 600*1024 {
		t.Fatalf("resident = %d, want ~352KB", got)
	}
	close(hold)
	<-res.Done
	if got := k.ResidentBytes(); got != 0 {
		t.Fatalf("resident after exit = %d, want 0", got)
	}
}

func TestExecResetsHandlers(t *testing.T) {
	k := NewKernel()
	if err := k.RegisterProgram("/bin/next", func(p api.OS, argv []string) int {
		return 5
	}); err != nil {
		t.Fatal(err)
	}
	code := launch(t, k, func(p api.OS, argv []string) int {
		p.Sigaction(api.SIGUSR1, func(api.Signal) {}, "")
		if err := p.Exec("/bin/next", []string{"/bin/next"}); err != nil {
			return 1
		}
		return 2
	})
	if code != 5 {
		t.Fatalf("exit = %d, want 5", code)
	}
}

func TestEveryCallCrossesTheGate(t *testing.T) {
	// Native Linux is the host kernel without the libOS: each system call is
	// exactly one entry into the host's syscall gate.
	k := NewKernel()
	code := launch(t, k, func(p api.OS, argv []string) int {
		before := k.host.SyscallCount()
		p.Getpid()
		if d := k.host.SyscallCount() - before; d != 1 {
			return 10 + int(d)
		}
		before = k.host.SyscallCount()
		pid, err := p.Fork(func(c api.OS) { c.Exit(0) })
		if err != nil {
			return 2
		}
		if _, err := p.Wait(pid); err != nil {
			return 3
		}
		// fork, the child's exit_group, wait4.
		if d := k.host.SyscallCount() - before; d != 3 {
			return 20 + int(d)
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("failed at step %d", code)
	}
}

// TestKillEndsAProcessBlockedInWait kills a parent parked in wait4 on a
// child that never exits: the parent must end, as SIGKILL ends a process
// in any sleep.
func TestKillEndsAProcessBlockedInWait(t *testing.T) {
	k := NewKernel()
	waiting := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if err := k.RegisterProgram("/bin/t", func(p api.OS, _ []string) int {
		pid, err := p.Fork(func(api.OS) { <-release })
		if err != nil {
			return 1
		}
		close(waiting)
		_, _ = p.Wait(pid)
		return 2
	}); err != nil {
		t.Fatal(err)
	}
	res, err := k.Launch("/bin/t", []string{"/bin/t"})
	if err != nil {
		t.Fatal(err)
	}
	<-waiting
	time.Sleep(10 * time.Millisecond) // into the wait
	if err := res.Process.Kill(res.Process.Getpid(), api.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case <-res.Done:
		if code := res.ExitCode(); code != 128+int(api.SIGKILL) {
			t.Fatalf("exit code %d, want %d", code, 128+int(api.SIGKILL))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a process killed in wait4 never ended")
	}
}
