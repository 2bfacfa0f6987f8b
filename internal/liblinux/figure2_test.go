package liblinux

import (
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
)

// TestFigure2ThreeCases walks the paper's Figure 2 end to end: the three
// ways a Graphene application can request OS services, and how each is
// mediated.
func TestFigure2ThreeCases(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		lp := p.(*Process)
		gate := lp.PAL().Kernel()

		// Case 1 (first line of main): malloc -> brk in libLinux ->
		// DkVirtualMemoryAlloc in the PAL -> mmap host syscall, allowed by
		// seccomp because it only affects the picoprocess.
		before := gate.SyscallCount()
		brk0, err := p.Brk(0)
		if err != nil {
			return 1
		}
		if _, err := p.Brk(brk0 + host.PageSize); err != nil {
			return 2
		}
		if gate.SyscallCount() <= before {
			return 3 // the PAL call never passed the seccomp gate
		}
		// The filter allows mmap from the PAL...
		if lp.PAL().Proc().Filter().Evaluate(host.SysMmap, true) != host.ActionAllow {
			return 4
		}

		// Case 2 (second line): the application jumps to the PAL's open
		// path. Permissible — isomorphic to PAL functionality — but the
		// reference monitor still checks the path policy in the kernel.
		if _, err := lp.PAL().DkStreamOpen("file:/fig2.txt", api.OCreate|api.OWrOnly, 0644); err != nil {
			return 5
		}

		// Case 3 (third line): inline assembly issues brk directly. The
		// seccomp filter traps it (the return PC is outside the PAL) and
		// redirects to the libLinux implementation, which returns the
		// current break.
		if lp.PAL().Proc().Filter().Evaluate(host.SysBrk, false) != host.ActionTrap {
			return 6
		}
		ret, err := lp.PAL().RawHostSyscall(host.SysBrk)
		if err != nil {
			return 7
		}
		cur, _ := p.Brk(0)
		if uint64(ret) != cur {
			return 8 // the redirect did not land in libLinux's brk
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("Figure 2 walk-through failed at step %d", code)
	}
}

// TestSandboxStress runs a deeper multi-process mix: a tree of processes
// exchanging signals, queue messages, and semaphore operations while some
// exit — the worst-case coordination churn of §6.5.
func TestSandboxStress(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		const workers = 6
		const itemsPerWorker = 25

		qid, err := p.Msgget(1000, api.IPCCreat)
		if err != nil {
			return 1
		}
		sid, err := p.Semget(1001, 1, api.IPCCreat)
		if err != nil {
			return 2
		}
		if err := p.Semop(sid, []api.SemBuf{{Num: 0, Op: 2}}); err != nil {
			return 3 // two workers may produce concurrently
		}

		var pids []int
		for w := 0; w < workers; w++ {
			w := w
			pid, err := p.Fork(func(c api.OS) {
				cq, err := c.Msgget(1000, 0)
				if err != nil {
					c.Exit(101)
				}
				cs, err := c.Semget(1001, 1, 0)
				if err != nil {
					c.Exit(102)
				}
				for i := 0; i < itemsPerWorker; i++ {
					if err := c.Semop(cs, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
						c.Exit(103)
					}
					payload := []byte{byte(w), byte(i)}
					if err := c.Msgsnd(cq, int64(w+1), payload, 0); err != nil {
						c.Exit(104)
					}
					if err := c.Semop(cs, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
						c.Exit(105)
					}
				}
				c.Exit(0)
			})
			if err != nil {
				return 4
			}
			pids = append(pids, pid)
		}

		// Fork in the middle of the storm: short-lived children create
		// runs of keyed queues (one placement block each), exercise
		// them, and destroy them before exiting. Their checkpoints
		// stream while the workers churn the SysV namespace, and their
		// exits race the drain below.
		const forkers = 3
		var fpids []int
		for f := 0; f < forkers; f++ {
			f := f
			pid, err := p.Fork(func(c api.OS) {
				base := 3000 + f*64 // one key block per forker
				var ids []int
				for i := 0; i < 8; i++ {
					id, err := c.Msgget(base+i, api.IPCCreat)
					if err != nil {
						c.Exit(110)
					}
					ids = append(ids, id)
				}
				if err := c.Msgsnd(ids[0], 7, []byte("churn"), 0); err != nil {
					c.Exit(111)
				}
				if _, _, err := c.Msgrcv(ids[0], 7, nil, 0); err != nil {
					c.Exit(112)
				}
				for _, id := range ids {
					if err := c.MsgctlRmid(id); err != nil {
						c.Exit(113)
					}
				}
				c.Exit(0)
			})
			if err != nil {
				return 9
			}
			fpids = append(fpids, pid)
		}

		// Drain everything the workers produce, concurrently with their
		// exits (queue adoption/persistence paths may fire).
		received := 0
		for received < workers*itemsPerWorker {
			_, _, err := p.Msgrcv(qid, 0, nil, 0)
			if err != nil {
				return 5
			}
			received++
		}
		for _, pid := range pids {
			res, err := p.Wait(pid)
			if err != nil {
				return 6
			}
			if res.ExitCode != 0 {
				return 100 + res.ExitCode
			}
		}
		for _, pid := range fpids {
			res, err := p.Wait(pid)
			if err != nil {
				return 10
			}
			if res.ExitCode != 0 {
				return 200 + res.ExitCode
			}
		}
		// The forkers' keys must be fully gone: a fresh exclusive create
		// of a key a forker removed must succeed.
		if _, err := p.Msgget(3000, api.IPCCreat|api.IPCExcl); err != nil {
			return 11
		}
		if err := p.MsgctlRmid(qid); err != nil {
			return 7
		}
		if err := p.SemctlRmid(sid); err != nil {
			return 8
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("stress failed at step %d", code)
	}
}
