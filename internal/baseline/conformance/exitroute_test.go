package conformance

import (
	"strconv"
	"sync/atomic"
	"testing"

	"graphene/internal/api"
)

// TestConformanceExecedChildExitStatus pins wait(2) across execve(2): the
// status wait reports is "the exit status of the child", whatever program
// the child is running by then, and the child's termination raises one
// SIGCHLD ("SIGCHLD ... Child stopped or terminated", signal(7)).
func TestConformanceExecedChildExitStatus(t *testing.T) {
	extra := map[string]api.Program{
		"/bin/seven": func(api.OS, []string) int { return 7 },
	}
	runEverywhere(t, extra, func(p api.OS, argv []string) int {
		var chld atomic.Int64
		if err := p.Sigaction(api.SIGCHLD, func(api.Signal) { chld.Add(1) }, ""); err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			_ = c.Exec("/bin/seven", []string{"/bin/seven"})
			c.Exit(100)
		})
		if err != nil {
			return 2
		}
		res, err := p.Wait(pid)
		if err != nil || res.PID != pid || res.ExitCode != 7 || res.Signaled != 0 {
			return 3
		}
		p.SignalsDrain()
		if n := chld.Load(); n != 1 {
			return 10 + int(n)
		}
		return 0
	})
}

// TestConformanceExecedParentReapsChild pins execve(2): "All process
// attributes are preserved during an execve(), except the following", and
// a process's children are not on that list. A program the parent execs
// into reaps the child the parent forked (wait(2)), whether the child died
// before the exec or after it.
func TestConformanceExecedParentReapsChild(t *testing.T) {
	extra := map[string]api.Program{
		"/bin/reaper": func(p api.OS, argv []string) int {
			early, _ := strconv.Atoi(argv[1])
			late, _ := strconv.Atoi(argv[2])
			w, _ := strconv.Atoi(argv[3])
			// The late child exits once this write end is gone.
			if err := p.Close(w); err != nil {
				return 11
			}
			if res, err := p.Wait(late); err != nil || res.ExitCode != 5 || res.Signaled != 0 {
				return 12
			}
			if res, err := p.Wait(early); err != nil || res.ExitCode != 6 || res.Signaled != 0 {
				return 13
			}
			if _, err := p.Wait(-1); api.ToErrno(err) != api.ECHILD {
				return 14
			}
			return 0
		},
	}
	runEverywhere(t, extra, func(p api.OS, argv []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		late, err := p.Fork(func(c api.OS) {
			_ = c.Close(w)
			_, _ = c.Read(r, make([]byte, 1)) // EOF once the reaper closes w
			c.Exit(5)
		})
		if err != nil {
			return 2
		}
		early, err := p.Fork(func(c api.OS) { c.Exit(6) })
		if err != nil {
			return 3
		}
		_ = p.Exec("/bin/reaper", []string{"/bin/reaper",
			strconv.Itoa(early), strconv.Itoa(late), strconv.Itoa(w)})
		return 4
	})
}

// TestConformanceSysVObjectsOutliveCreatorAtWait pins svipc(7) against
// wait(2): a message queue and a semaphore set live in the kernel until
// removed, not with the process that created them, so the instant wait()
// has reaped their creator a sibling finds both by key and takes what the
// creator left without blocking (IPC_NOWAIT, msgrcv(2) and semop(2)). The
// parent is not the sandbox's first process, 200 times over.
func TestConformanceSysVObjectsOutliveCreatorAtWait(t *testing.T) {
	const rounds = 200
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		parent, err := p.Fork(func(c api.OS) {
			for i := 0; i < rounds; i++ {
				key := 0x3E00 + i
				pid, err := c.Fork(func(g api.OS) {
					qid, err := g.Msgget(key, api.IPCCreat)
					if err != nil {
						g.Exit(1)
					}
					if err := g.Msgsnd(qid, 4, []byte("left behind"), 0); err != nil {
						g.Exit(2)
					}
					sid, err := g.Semget(key, 1, api.IPCCreat)
					if err != nil {
						g.Exit(3)
					}
					if err := g.Semop(sid, []api.SemBuf{{Num: 0, Op: 3}}); err != nil {
						g.Exit(4)
					}
					g.Exit(0)
				})
				if err != nil {
					c.Exit(10)
				}
				if res, err := c.Wait(pid); err != nil || res.ExitCode != 0 {
					c.Exit(11)
				}
				qid, err := c.Msgget(key, 0)
				if err != nil {
					c.Exit(12)
				}
				mt, data, err := c.Msgrcv(qid, 0, nil, api.IPCNoWait)
				if err != nil || mt != 4 || string(data) != "left behind" {
					c.Exit(13)
				}
				sid, err := c.Semget(key, 1, 0)
				if err != nil {
					c.Exit(14)
				}
				if err := c.Semop(sid, []api.SemBuf{{Num: 0, Op: -3, Flg: int16(api.IPCNoWait)}}); err != nil {
					c.Exit(15)
				}
				if c.MsgctlRmid(qid) != nil || c.SemctlRmid(sid) != nil {
					c.Exit(16)
				}
			}
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		res, err := p.Wait(parent)
		if err != nil {
			return 2
		}
		if res.ExitCode != 0 {
			return 100 + res.ExitCode
		}
		return 0
	})
}
