package liblinux

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"graphene/internal/api"
)

func TestPollSelectsReadable(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		lp := p.(*Process)
		r1, w1, err := p.Pipe()
		if err != nil {
			return 1
		}
		r2, w2, err := p.Pipe()
		if err != nil {
			return 2
		}
		_ = w1
		// Nothing readable yet: poll times out.
		if _, err := lp.Poll([]int{r1, r2}, 20_000); api.ToErrno(err) != api.ETIMEDOUT {
			return 3
		}
		if _, err := p.Write(w2, []byte("x")); err != nil {
			return 4
		}
		idx, err := lp.Poll([]int{r1, r2}, 1_000_000)
		if err != nil || idx != 1 {
			return 5
		}
		// Poll on a bad descriptor fails cleanly.
		if _, err := lp.Poll([]int{999}, 1000); api.ToErrno(err) != api.EBADF {
			return 6
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("poll failed at step %d", code)
	}
}

func TestThreadsShareDescriptors(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		th := p.(api.Threader)
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		done := make(chan error, 1)
		if err := th.SpawnThread(func() {
			// The thread writes through the shared fd table.
			_, err := p.Write(w, []byte("from thread"))
			done <- err
		}); err != nil {
			return 2
		}
		buf := make([]byte, 32)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "from thread" {
			return 3
		}
		if err := <-done; err != nil {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("threads failed at step %d", code)
	}
}

func TestConnectionPassingBetweenProcesses(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		cp := p.(api.ConnPasser)
		lfd, err := p.Listen("127.0.0.1:6100")
		if err != nil {
			return 1
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 2
		}
		// Worker child receives a connection and serves it.
		pid, err := p.Fork(func(c api.OS) {
			ccp := c.(api.ConnPasser)
			conn, err := ccp.ReceiveConnection(r)
			if err != nil {
				c.Exit(101)
			}
			buf := make([]byte, 16)
			n, _ := c.Read(conn, buf)
			if _, err := c.Write(conn, bytes.ToUpper(buf[:n])); err != nil {
				c.Exit(102)
			}
			c.Close(conn)
			c.Exit(0)
		})
		if err != nil {
			return 3
		}
		// Client connects; parent accepts and passes to the worker, then
		// immediately closes its copy — the worker's reference keeps the
		// connection alive (SendHandle transfers a reference).
		cfd, err := p.Connect("127.0.0.1:6100")
		if err != nil {
			return 4
		}
		sfd, err := p.Accept(lfd)
		if err != nil {
			return 5
		}
		if err := cp.PassConnection(w, sfd); err != nil {
			return 6
		}
		p.Close(sfd)
		if _, err := p.Write(cfd, []byte("hello")); err != nil {
			return 7
		}
		buf := make([]byte, 16)
		n, err := p.Read(cfd, buf)
		if err != nil || string(buf[:n]) != "HELLO" {
			return 8
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 100 + res.ExitCode
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("connection passing failed at step %d", code)
	}
}

// TestCrashedChildSynthesizedExit: a child whose picoprocess dies without
// running the libOS exit path is reported all the same, because the host
// exit event is every child's exit notification (§4.2, "one synthesized if
// child becomes unavailable").
func TestCrashedChildSynthesizedExit(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		lp := p.(*Process)
		pid, err := p.Fork(func(c api.OS) {
			// Crash the picoprocess directly: no libOS exit path runs.
			cc := c.(*Process)
			cc.PAL().Proc().Exit(139)
			select {} // unreachable; the host process is dead
		})
		if err != nil {
			return 1
		}
		_ = lp
		res, err := p.Wait(pid)
		if err != nil {
			return 2
		}
		if res.ExitCode != 139 {
			return 3
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("synthesized exit failed at step %d", code)
	}
}

// Property: checkpoint encode/decode round-trips arbitrary metadata.
func TestPropertyCheckpointRoundTrip(t *testing.T) {
	f := func(pid, ppid, pgid int64, argv []string, cwd string, brk uint64, fds []int16) bool {
		ck := new(Checkpoint)
		ck.PID, ck.PPID, ck.PGID = pid, ppid, pgid
		ck.Argv, ck.Cwd, ck.Brk = argv, cwd, brk
		ck.Env = map[string]string{"K": cwd}
		for i, fd := range fds {
			ck.FDs = append(ck.FDs, FDCheckpoint{FD: int(fd), Kind: i % 4, Pos: int64(i), HandleIndex: -1})
		}
		out, err := decodeImage(encodeImage(t, ck))
		if err != nil {
			return false
		}
		if out.PID != ck.PID || out.PPID != ck.PPID || out.PGID != ck.PGID ||
			out.Cwd != ck.Cwd || out.Brk != ck.Brk || len(out.FDs) != len(ck.FDs) {
			return false
		}
		for i := range ck.Argv {
			if out.Argv[i] != ck.Argv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any sequence of open/close, the fd table never hands out
// a descriptor that is already in use, and always reuses the lowest free.
func TestPropertyFDTableLowestFree(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		var fds []int
		for i := 0; i < 20; i++ {
			fd, err := p.Open("/f", api.OCreate|api.ORdWr, 0644)
			if err != nil {
				return 1
			}
			for _, prev := range fds {
				if prev == fd {
					return 2 // duplicate live descriptor
				}
			}
			fds = append(fds, fd)
		}
		// Close one in the middle; the next open must reuse it.
		victim := fds[7]
		if err := p.Close(victim); err != nil {
			return 3
		}
		fd, err := p.Open("/f", api.ORdOnly, 0)
		if err != nil {
			return 4
		}
		if fd != victim {
			return 5
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("fd table property failed at step %d", code)
	}
}

func TestReadAfterCloseEBADF(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		fd, err := p.Open("/x", api.OCreate|api.ORdWr, 0644)
		if err != nil {
			return 1
		}
		p.Close(fd)
		if _, err := p.Read(fd, make([]byte, 4)); api.ToErrno(err) != api.EBADF {
			return 2
		}
		if _, err := p.Write(fd, []byte("x")); api.ToErrno(err) != api.EBADF {
			return 3
		}
		if err := p.Close(fd); api.ToErrno(err) != api.EBADF {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("EBADF failed at step %d", code)
	}
}

func TestSigpipeOnBrokenPipe(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		got := make(chan api.Signal, 4)
		p.Sigaction(api.SIGPIPE, func(s api.Signal) { got <- s }, "")
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		p.Close(r)
		if _, err := p.Write(w, []byte("x")); api.ToErrno(err) != api.EPIPE {
			return 2
		}
		p.SignalsDrain()
		select {
		case s := <-got:
			if s != api.SIGPIPE {
				return 3
			}
		case <-time.After(time.Second):
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("SIGPIPE failed at step %d", code)
	}
}

func TestExitClosesChildOutput(t *testing.T) {
	rt, man := testEnv(t)
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		// Parent reads the child's pipe until EOF, which must arrive when
		// the child exits even though the child never closed the fd.
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			c.Write(w, []byte("bye"))
			c.Exit(0) // fd table torn down by exit
		})
		if err != nil {
			return 2
		}
		// Close our write end so EOF can propagate.
		p.Close(w)
		var all []byte
		buf := make([]byte, 8)
		for {
			n, err := p.Read(r, buf)
			if n > 0 {
				all = append(all, buf[:n]...)
			}
			if err != nil || n == 0 {
				break
			}
		}
		if string(all) != "bye" {
			return 3
		}
		p.Wait(pid)
		return 0
	})
	if code != 0 {
		t.Fatalf("exit EOF failed at step %d", code)
	}
}
