package liblinux

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/monitor"
)

const testManifestText = `
mount / /
allow_read /
allow_write /
net_listen *:*
net_connect *:*
`

// testEnv builds a runtime with a permissive manifest.
func testEnv(t *testing.T) (*Runtime, *monitor.Manifest) {
	t.Helper()
	k := host.NewKernel()
	m := monitor.New(k)
	man, err := monitor.ParseManifest("test", testManifestText)
	if err != nil {
		t.Fatal(err)
	}
	return NewRuntime(k, m), man
}

// run launches prog at /bin/test and waits for exit, with a deadline.
func run(t *testing.T, rt *Runtime, man *monitor.Manifest, prog api.Program, argv ...string) int {
	t.Helper()
	if err := rt.RegisterProgram("/bin/test", prog); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/test", append([]string{"/bin/test"}, argv...))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-res.Done:
		return res.ExitCode()
	case <-time.After(30 * time.Second):
		t.Fatal("program did not exit")
		return -1
	}
}

func TestLaunchAndExitCode(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if p.Getpid() != 1 {
			return 1
		}
		return 42
	})
	if code != 42 {
		t.Fatalf("exit code = %d, want 42", code)
	}
}

func TestExplicitExit(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		p.Exit(7)
		return 0 // unreachable
	})
	if code != 7 {
		t.Fatalf("exit code = %d, want 7", code)
	}
}

func TestFileIO(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if err := p.Mkdir("/data", 0755); err != nil {
			return 1
		}
		fd, err := p.Open("/data/f.txt", api.OCreate|api.ORdWr, 0644)
		if err != nil {
			return 2
		}
		if _, err := p.Write(fd, []byte("hello world")); err != nil {
			return 3
		}
		if _, err := p.Lseek(fd, 6, api.SeekSet); err != nil {
			return 4
		}
		buf := make([]byte, 16)
		n, err := p.Read(fd, buf)
		if err != nil || string(buf[:n]) != "world" {
			return 5
		}
		if err := p.Close(fd); err != nil {
			return 6
		}
		st, err := p.Stat("/data/f.txt")
		if err != nil || st.Size != 11 {
			return 7
		}
		ents, err := p.ReadDir("/data")
		if err != nil || len(ents) != 1 || ents[0].Name != "f.txt" {
			return 8
		}
		if err := p.Rename("/data/f.txt", "/data/g.txt"); err != nil {
			return 9
		}
		if err := p.Unlink("/data/g.txt"); err != nil {
			return 10
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("file IO failed at step %d", code)
	}
}

func TestCwdResolution(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if err := p.Mkdir("/work", 0755); err != nil {
			return 1
		}
		if err := p.Chdir("/work"); err != nil {
			return 2
		}
		if cwd, _ := p.Getcwd(); cwd != "/work" {
			return 3
		}
		fd, err := p.Open("rel.txt", api.OCreate|api.OWrOnly, 0644)
		if err != nil {
			return 4
		}
		p.Close(fd)
		if _, err := p.Stat("/work/rel.txt"); err != nil {
			return 5
		}
		if err := p.Chdir("/missing"); err != api.ENOENT {
			return 6
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("cwd failed at step %d", code)
	}
}

func TestSeekPointerSharedAcrossDup(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		fd, err := p.Open("/f", api.OCreate|api.ORdWr, 0644)
		if err != nil {
			return 1
		}
		if _, err := p.Write(fd, []byte("abcdef")); err != nil {
			return 2
		}
		if _, err := p.Lseek(fd, 0, api.SeekSet); err != nil {
			return 3
		}
		dup, err := p.Dup2(fd, 9)
		if err != nil || dup != 9 {
			return 4
		}
		buf := make([]byte, 3)
		if _, err := p.Read(fd, buf); err != nil {
			return 5
		}
		// The dup shares the seek pointer: reading resumes at offset 3.
		n, err := p.Read(9, buf)
		if err != nil || string(buf[:n]) != "def" {
			return 6
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("dup seek failed at step %d", code)
	}
}

func TestPipeWithinProcess(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		if _, err := p.Write(w, []byte("through the pipe")); err != nil {
			return 2
		}
		buf := make([]byte, 32)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "through the pipe" {
			return 3
		}
		p.Close(w)
		n, err = p.Read(r, buf)
		if err != nil || n != 0 {
			return 4 // expect EOF after writer close
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("pipe failed at step %d", code)
	}
}

func TestBrkAndMemory(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		brk0, err := p.Brk(0)
		if err != nil {
			return 1
		}
		brk1, err := p.Brk(brk0 + 100_000)
		if err != nil || brk1 != brk0+100_000 {
			return 2
		}
		if err := p.MemWrite(brk0, []byte("heap data")); err != nil {
			return 3
		}
		buf := make([]byte, 9)
		if err := p.MemRead(brk0, buf); err != nil || string(buf) != "heap data" {
			return 4
		}
		// mmap + munmap
		addr, err := p.Mmap(0, 3*host.PageSize, api.ProtRead|api.ProtWrite)
		if err != nil {
			return 5
		}
		if err := p.MemWrite(addr, []byte("mapped")); err != nil {
			return 6
		}
		if err := p.Munmap(addr, 3*host.PageSize); err != nil {
			return 7
		}
		if err := p.MemWrite(addr, []byte("x")); err != api.EFAULT {
			return 8
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("memory failed at step %d", code)
	}
}

func TestForkCopiesState(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		p.Setenv("INHERITED", "yes")
		brk0, _ := p.Brk(0)
		if _, err := p.Brk(brk0 + host.PageSize); err != nil {
			return 1
		}
		if err := p.MemWrite(brk0, []byte("parent memory")); err != nil {
			return 2
		}
		childResult := make(chan int, 1)
		pid, err := p.Fork(func(c api.OS) {
			// The child sees the parent's heap copy-on-write.
			buf := make([]byte, 13)
			if err := c.MemRead(brk0, buf); err != nil || string(buf) != "parent memory" {
				childResult <- 101
				c.Exit(101)
			}
			if c.Getenv("INHERITED") != "yes" {
				childResult <- 102
				c.Exit(102)
			}
			// Child writes must not reach the parent.
			if err := c.MemWrite(brk0, []byte("child scribble")); err != nil {
				childResult <- 103
				c.Exit(103)
			}
			if c.Getppid() != 1 {
				childResult <- 104
				c.Exit(104)
			}
			childResult <- 0
			c.Exit(0)
		})
		if err != nil {
			return 3
		}
		if pid == p.Getpid() || pid <= 0 {
			return 4
		}
		res, err := p.Wait(pid)
		if err != nil || res.PID != pid || res.ExitCode != 0 {
			return 5
		}
		if cr := <-childResult; cr != 0 {
			return cr
		}
		// Parent memory must be unchanged by the child's write.
		buf := make([]byte, 13)
		if err := p.MemRead(brk0, buf); err != nil || string(buf) != "parent memory" {
			return 6
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("fork failed at step %d", code)
	}
}

func TestForkPipeSharing(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			// The child inherits both ends; write and close.
			if _, err := c.Write(w, []byte("from child")); err != nil {
				c.Exit(101)
			}
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		buf := make([]byte, 32)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "from child" {
			return 3
		}
		if _, err := p.Wait(pid); err != nil {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("fork pipe failed at step %d", code)
	}
}

func TestWaitAnyChild(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		for i := 0; i < 3; i++ {
			exitCode := 10 + i
			if _, err := p.Fork(func(c api.OS) { c.Exit(exitCode) }); err != nil {
				return 1
			}
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			res, err := p.Wait(-1)
			if err != nil {
				return 2
			}
			seen[res.ExitCode] = true
		}
		if !seen[10] || !seen[11] || !seen[12] {
			return 3
		}
		if _, err := p.Wait(-1); err != api.ECHILD {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("wait failed at step %d", code)
	}
}

func TestExecReplacesImage(t *testing.T) {
	rt, man := testEnv(t)
	if err := rt.RegisterProgram("/bin/second", func(p api.OS, argv []string) int {
		if len(argv) != 2 || argv[1] != "arg-from-exec" {
			return 90
		}
		// Same PID after exec.
		if p.Getpid() != 1 {
			return 91
		}
		return 55
	}); err != nil {
		t.Fatal(err)
	}
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if err := p.Exec("/bin/second", []string{"/bin/second", "arg-from-exec"}); err != nil {
			return 1
		}
		return 2 // unreachable: exec does not return on success
	})
	if code != 55 {
		t.Fatalf("exit code = %d, want 55 (exec'd program)", code)
	}
}

func TestExecMissingBinary(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if err := p.Exec("/bin/nonexistent", nil); err == api.ENOENT {
			return 0
		}
		return 1
	})
	if code != 0 {
		t.Fatal("exec of missing binary did not fail with ENOENT")
	}
}

func TestSpawn(t *testing.T) {
	rt, man := testEnv(t)
	if err := rt.RegisterProgram("/bin/worker", func(p api.OS, argv []string) int {
		fd, err := p.Open("/out.txt", api.OCreate|api.OWrOnly, 0644)
		if err != nil {
			return 1
		}
		if _, err := p.Write(fd, []byte("spawned:"+argv[1])); err != nil {
			return 1
		}
		return 33
	}); err != nil {
		t.Fatal(err)
	}
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		pid, err := p.Spawn("/bin/worker", []string{"/bin/worker", "payload"})
		if err != nil {
			return 1
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 33 {
			return 2
		}
		fd, err := p.Open("/out.txt", api.ORdOnly, 0)
		if err != nil {
			return 3
		}
		buf := make([]byte, 64)
		n, _ := p.Read(fd, buf)
		if string(buf[:n]) != "spawned:payload" {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("spawn failed at step %d", code)
	}
}

func TestSignalsSelfFastPath(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		var fired atomic.Int32
		if err := p.Sigaction(api.SIGUSR1, func(sig api.Signal) {
			fired.Add(1)
		}, ""); err != nil {
			return 1
		}
		if err := p.Kill(p.Getpid(), api.SIGUSR1); err != nil {
			return 2
		}
		p.SignalsDrain()
		if fired.Load() != 1 {
			return 3
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("self signal failed at step %d", code)
	}
}

func TestSignalsCrossProcess(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		gotSig := make(chan api.Signal, 1)
		pid, err := p.Fork(func(c api.OS) {
			c.Sigaction(api.SIGUSR1, func(sig api.Signal) {
				gotSig <- sig
			}, "")
			// Poll for the pending signal, as a busy guest would.
			for i := 0; i < 2000; i++ {
				c.SignalsDrain()
				select {
				case <-gotSig:
					gotSig <- api.SIGUSR1
					c.Exit(0)
				default:
				}
				time.Sleep(time.Millisecond)
			}
			c.Exit(111)
		})
		if err != nil {
			return 1
		}
		// Give the child a moment to install its handler.
		time.Sleep(20 * time.Millisecond)
		if err := p.Kill(pid, api.SIGUSR1); err != nil {
			return 2
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 3
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("cross-process signal failed at step %d", code)
	}
}

func TestSignalDefaultFatal(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		pid, err := p.Fork(func(c api.OS) {
			// Child spins until killed.
			for {
				time.Sleep(time.Millisecond)
				c.SignalsDrain()
			}
		})
		if err != nil {
			return 1
		}
		time.Sleep(10 * time.Millisecond)
		if err := p.Kill(pid, api.SIGTERM); err != nil {
			return 2
		}
		res, err := p.Wait(pid)
		if err != nil {
			return 3
		}
		if res.ExitCode != 128+int(api.SIGTERM) {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("fatal signal failed at step %d", code)
	}
}

func TestSignalIgnored(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if err := p.Sigaction(api.SIGTERM, nil, api.SigIgn); err != nil {
			return 1
		}
		if err := p.Kill(p.Getpid(), api.SIGTERM); err != nil {
			return 2
		}
		p.SignalsDrain()
		return 0 // still alive
	})
	if code != 0 {
		t.Fatalf("ignored signal failed at step %d", code)
	}
}

func TestSigactionRejectsKill(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if err := p.Sigaction(api.SIGKILL, func(api.Signal) {}, ""); err != api.EINVAL {
			return 1
		}
		return 0
	})
	if code != 0 {
		t.Fatal("SIGKILL handler was accepted")
	}
}

func TestProcSelf(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		fd, err := p.Open("/proc/self/status", api.ORdOnly, 0)
		if err != nil {
			return 1
		}
		buf := make([]byte, 256)
		n, err := p.Read(fd, buf)
		if err != nil {
			return 2
		}
		s := string(buf[:n])
		if !strings.Contains(s, "Pid:\t1") || !strings.Contains(s, "Name:\ttest") {
			return 3
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("/proc/self failed at step %d", code)
	}
}

func TestProcRemotePIDOverRPC(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		ready := make(chan int, 1)
		release := make(chan struct{})
		pid, err := p.Fork(func(c api.OS) {
			ready <- c.Getpid()
			<-release
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		childPID := <-ready
		if childPID != pid {
			return 2
		}
		fd, err := p.Open("/proc/"+strconv.Itoa(pid)+"/status", api.ORdOnly, 0)
		if err != nil {
			return 3
		}
		buf := make([]byte, 256)
		n, _ := p.Read(fd, buf)
		if !strings.Contains(string(buf[:n]), "Pid:\t"+strconv.Itoa(pid)) {
			return 4
		}
		close(release)
		p.Wait(pid)
		return 0
	})
	if code != 0 {
		t.Fatalf("remote /proc failed at step %d", code)
	}
}

func TestSysVAcrossFork(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		qid, err := p.Msgget(777, api.IPCCreat)
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			// Child looks up the same key and sends.
			cqid, err := c.Msgget(777, 0)
			if err != nil {
				c.Exit(101)
			}
			if err := c.Msgsnd(cqid, 9, []byte("via sysv"), 0); err != nil {
				c.Exit(102)
			}
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		mt, data, err := p.Msgrcv(qid, 0, nil, 0)
		if err != nil || mt != 9 || string(data) != "via sysv" {
			return 3
		}
		res, _ := p.Wait(pid)
		if res.ExitCode != 0 {
			return 100 + res.ExitCode
		}
		if err := p.MsgctlRmid(qid); err != nil {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("sysv msgq failed at step %d", code)
	}
}

func TestSemaphoreAccessMutexAcrossFork(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		sid, err := p.Semget(888, 1, api.IPCCreat)
		if err != nil {
			return 1
		}
		// Initialize to 1 (mutex).
		if err := p.Semop(sid, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
			return 2
		}
		const rounds = 20
		child := func(c api.OS) {
			csid, err := c.Semget(888, 1, 0)
			if err != nil {
				c.Exit(101)
			}
			for i := 0; i < rounds; i++ {
				if err := c.Semop(csid, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
					c.Exit(102)
				}
				if err := c.Semop(csid, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
					c.Exit(103)
				}
			}
			c.Exit(0)
		}
		pid1, err := p.Fork(child)
		if err != nil {
			return 3
		}
		pid2, err := p.Fork(child)
		if err != nil {
			return 4
		}
		for _, pid := range []int{pid1, pid2} {
			res, err := p.Wait(pid)
			if err != nil || res.ExitCode != 0 {
				return 100 + res.ExitCode
			}
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("semaphore mutex failed at step %d", code)
	}
}

func TestSocketsLoopback(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		lfd, err := p.Listen("127.0.0.1:9000")
		if err != nil {
			return 1
		}
		done := make(chan int, 1)
		go func() {
			conn, err := p.Accept(lfd)
			if err != nil {
				done <- 101
				return
			}
			buf := make([]byte, 16)
			n, _ := p.Read(conn, buf)
			p.Write(conn, []byte(strings.ToUpper(string(buf[:n]))))
			done <- 0
		}()
		cfd, err := p.Connect("127.0.0.1:9000")
		if err != nil {
			return 2
		}
		if _, err := p.Write(cfd, []byte("ping")); err != nil {
			return 3
		}
		buf := make([]byte, 16)
		n, err := p.Read(cfd, buf)
		if err != nil || string(buf[:n]) != "PING" {
			return 4
		}
		if c := <-done; c != 0 {
			return c
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("sockets failed at step %d", code)
	}
}

func TestMigrationCheckpointResume(t *testing.T) {
	rt, man := testEnv(t)
	prog := func(p api.OS, argv []string) int {
		if p.Getenv("RESUMED") == "1" {
			// Resumed on the "other machine": the heap must be intact.
			brk0 := uint64(brkBase)
			buf := make([]byte, 12)
			if err := p.MemRead(brk0, buf); err != nil || string(buf) != "migrate this" {
				return 99
			}
			return 0
		}
		brk0, _ := p.Brk(0)
		p.Brk(brk0 + host.PageSize)
		p.MemWrite(brk0, []byte("migrate this"))
		// Park until checkpointed externally.
		for {
			time.Sleep(5 * time.Millisecond)
			p.SignalsDrain()
		}
	}
	if err := rt.RegisterProgram("/bin/mig", prog); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/mig", []string{"/bin/mig"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let it write its heap
	blob, err := res.Process.CheckpointToBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty checkpoint")
	}

	// "Another machine": a brand-new kernel + runtime.
	k2 := host.NewKernel()
	m2 := monitor.New(k2)
	rt2 := NewRuntime(k2, m2)
	if err := rt2.RegisterProgram("/bin/mig", prog); err != nil {
		t.Fatal(err)
	}
	man2, _ := monitor.ParseManifest("m2", testManifestText)
	res2, err := rt2.ResumeFromBytes(man2, blob)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	select {
	case <-res2.Done:
		if res2.ExitCode() != 0 {
			t.Fatalf("resumed exit = %d", res2.ExitCode())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("resumed process never exited")
	}
}

func TestManifestBlocksOpenInsideLibOS(t *testing.T) {
	k := host.NewKernel()
	m := monitor.New(k)
	// Seed a secret outside the manifest view.
	if err := k.FS.WriteFile("/secret.txt", []byte("s3cret"), 0600); err != nil {
		t.Fatal(err)
	}
	k.FS.MkdirAll("/app", 0755)
	rt := NewRuntime(k, m)
	man, err := monitor.ParseManifest("tight", "mount / /\nallow_read /app\nallow_read /bin\nallow_write /app\n")
	if err != nil {
		t.Fatal(err)
	}
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		if _, err := p.Open("/secret.txt", api.ORdOnly, 0); err != api.EACCES {
			return 1
		}
		fd, err := p.Open("/app/ok.txt", api.OCreate|api.OWrOnly, 0644)
		if err != nil {
			return 2
		}
		p.Close(fd)
		return 0
	})
	if code != 0 {
		t.Fatalf("manifest enforcement failed at step %d", code)
	}
}

func TestForkDeepChain(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		// Grandchild through child: exercises PID batching at depth.
		pid, err := p.Fork(func(c api.OS) {
			gpid, err := c.Fork(func(g api.OS) {
				g.Exit(5)
			})
			if err != nil {
				c.Exit(101)
			}
			res, err := c.Wait(gpid)
			if err != nil || res.ExitCode != 5 {
				c.Exit(102)
			}
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 100 + res.ExitCode
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("deep fork failed at step %d", code)
	}
}

func TestTTYOutputReachesConsole(t *testing.T) {
	rt, man := testEnv(t)
	run(t, rt, man, func(p api.OS, argv []string) int {
		p.Write(1, []byte("stdout line\n"))
		p.Write(2, []byte("stderr line\n"))
		return 0
	})
	out := rt.Kernel().ConsoleOf().Contents()
	if !strings.Contains(out, "stdout line") || !strings.Contains(out, "stderr line") {
		t.Fatalf("console = %q", out)
	}
}

// TestKillEndsAProcessBlockedInWait kills a parent parked in wait4 on a
// child that never exits: the parent must end, as SIGKILL ends a process
// in any sleep.
func TestKillEndsAProcessBlockedInWait(t *testing.T) {
	rt, man := testEnv(t)
	waiting := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if err := rt.RegisterProgram("/bin/test", func(p api.OS, _ []string) int {
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
	res, err := rt.Launch(man, "/bin/test", []string{"/bin/test"})
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

// TestKillUnwindsAForkingThread lets the thread of a killed process call
// Fork or Spawn: the call must unwind the thread as Exit does, not return
// to the program, which would go on to its next call.
func TestKillUnwindsAForkingThread(t *testing.T) {
	for _, call := range []string{"fork", "spawn"} {
		t.Run(call, func(t *testing.T) {
			rt, man := testEnv(t)
			if err := rt.RegisterProgram("/bin/child", func(api.OS, []string) int { return 0 }); err != nil {
				t.Fatal(err)
			}
			parked := make(chan struct{})
			release := make(chan struct{})
			var returned atomic.Bool
			if err := rt.RegisterProgram("/bin/test", func(p api.OS, _ []string) int {
				close(parked)
				<-release
				if call == "fork" {
					_, _ = p.Fork(func(api.OS) {})
				} else {
					_, _ = p.Spawn("/bin/child", []string{"child"})
				}
				returned.Store(true)
				return 2
			}); err != nil {
				t.Fatal(err)
			}
			res, err := rt.Launch(man, "/bin/test", []string{"/bin/test"})
			if err != nil {
				t.Fatal(err)
			}
			<-parked
			if err := res.Process.Kill(res.Process.Getpid(), api.SIGKILL); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); !res.Process.PAL().Proc().Dead(); {
				if time.Now().After(deadline) {
					t.Fatal("SIGKILL did not end the picoprocess")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			select {
			case <-res.Done:
			case <-time.After(5 * time.Second):
				t.Fatal("the killed process never ended")
			}
			if code := res.ExitCode(); code != 128+int(api.SIGKILL) {
				t.Fatalf("exit code %d, want %d", code, 128+int(api.SIGKILL))
			}
			if returned.Load() {
				t.Fatalf("%s returned to the program of a killed process", call)
			}
		})
	}
}

// TestChildOfAParentKilledMidForkFailsItsRestore kills a parent once it has
// shipped every checkpoint section and its child's mapper is waiting in
// IPCStore.MapNext for the first memory batch, which never comes: every
// commit waits 5 s at the parent's write gate. The child must fail its
// restore at once rather than wait out the commit, it must never run, and
// the parent's Fork must unwind.
func TestChildOfAParentKilledMidForkFailsItsRestore(t *testing.T) {
	rt, man := testEnv(t)
	var parent *Process
	var killOnce sync.Once
	rt.stageObs = func(stage string, _ time.Duration) {
		if stage != "sections" {
			return
		}
		killOnce.Do(func() {
			for deadline := time.Now().Add(5 * time.Second); !waitingForABatch(); {
				if time.Now().After(deadline) {
					t.Error("the child's mapper never waited for a batch")
					break
				}
				time.Sleep(time.Millisecond)
			}
			parent.deliver(api.SIGKILL)
		})
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	var childRan, forkReturned atomic.Bool
	if err := rt.RegisterProgram("/bin/test", func(p api.OS, _ []string) int {
		parent = p.(*Process)
		// An image to commit: with none the child has no batch to wait for.
		if _, err := p.Mmap(0, 4*host.PageSize, api.ProtRead|api.ProtWrite); err != nil {
			return 1
		}
		close(parked)
		<-release
		_, _ = p.Fork(func(api.OS) { childRan.Store(true) })
		forkReturned.Store(true)
		return 2
	}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/test", []string{"/bin/test"})
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	res.Process.PAL().Proc().SetFaultPlan(host.NewFaultPlan().
		DelayRule("sys."+strconv.Itoa(host.SysWrite), 0, 5*time.Second))
	close(release)
	select {
	case <-res.Done:
	case <-time.After(2 * time.Second):
		t.Fatal("a parent killed mid-fork did not end while its memory commits were held back")
	}
	if code := res.ExitCode(); code != 128+int(api.SIGKILL) {
		t.Fatalf("exit code %d, want %d", code, 128+int(api.SIGKILL))
	}
	if forkReturned.Load() {
		t.Fatal("Fork returned to the program of a killed process")
	}
	for deadline := time.Now().Add(2 * time.Second); len(rt.Kernel().Processes()) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the child of a parent killed mid-fork is still waiting")
		}
		time.Sleep(time.Millisecond)
	}
	if childRan.Load() {
		t.Fatal("the child of a parent killed mid-fork ran")
	}
}

// waitingForABatch reports whether a goroutine is inside IPCStore.MapNext,
// read from a dump of every goroutine's stack.
func waitingForABatch() bool {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Contains(buf[:n], []byte("(*IPCStore).MapNext"))
}
