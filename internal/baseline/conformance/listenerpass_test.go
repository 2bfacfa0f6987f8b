package conformance

import (
	"testing"
	"time"

	"graphene/internal/api"
)

// These tests pin the listening-socket handover contract behind the
// fleet's hot-standby master. The behaviors are the ones Linux documents
// for SCM_RIGHTS-passed descriptors: unix(7) — "the file descriptors...
// are duplicated as if by dup(2)", so sender and receiver refer to the
// same open file description; socket(7)/close(2) — the underlying socket
// is only torn down when the last descriptor referring to it is closed;
// accept(2) — the listen backlog belongs to the open file description,
// not to any one process, so any co-holder may accept from it. All three
// personalities must agree: the standby's takeover correctness keys on
// exactly these semantics.

// TestConformanceListenerPassCoHeldAccept: while primary and standby both
// hold the passed listener, the primary's in-flight accept completes
// normally (handover must not disturb the serving master), and after the
// primary exits the standby's *first* accept on its copy succeeds — the
// listen backlog survives because the standby's descriptor keeps the open
// file description alive (close(2): teardown happens at the last close).
func TestConformanceListenerPassCoHeldAccept(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		cp, ok := p.(api.ConnPasser)
		if !ok {
			return 90
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			ccp := c.(api.ConnPasser)
			lfd, err := c.Listen("127.0.0.1:7803")
			if err != nil {
				c.Exit(11)
			}
			if err := ccp.PassConnection(w, lfd); err != nil {
				c.Exit(12)
			}
			// In-flight accept on the old master: must complete even though
			// the standby now co-holds the listener.
			conn, err := c.Accept(lfd)
			if err != nil {
				c.Exit(13)
			}
			buf := make([]byte, 1)
			if n, _ := c.Read(conn, buf); n != 1 {
				c.Exit(14)
			}
			if _, err := c.Write(conn, []byte{'P'}); err != nil {
				c.Exit(15)
			}
			_ = c.Close(conn)
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		lfd2, err := cp.ReceiveConnection(r)
		if err != nil {
			return 3
		}
		client := func(want byte) int {
			cfd, err := p.Connect("127.0.0.1:7803")
			if err != nil {
				return 1
			}
			defer p.Close(cfd)
			if _, err := p.Write(cfd, []byte{'x'}); err != nil {
				return 2
			}
			buf := make([]byte, 1)
			if n, _ := p.Read(cfd, buf); n != 1 || buf[0] != want {
				return 3
			}
			return 0
		}
		c1 := make(chan int, 1)
		go func() { c1 <- client('P') }()
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 4
		}
		if <-c1 != 0 {
			return 5
		}
		// The primary is dead and reaped. The standby's first accept on its
		// own copy of the listener must succeed.
		c2 := make(chan int, 1)
		go func() { c2 <- client('S') }()
		conn, err := p.Accept(lfd2)
		if err != nil {
			return 6
		}
		buf := make([]byte, 1)
		if n, _ := p.Read(conn, buf); n != 1 {
			return 7
		}
		if _, err := p.Write(conn, []byte{'S'}); err != nil {
			return 8
		}
		_ = p.Close(conn)
		if <-c2 != 0 {
			return 9
		}
		return 0
	})
}

// TestConformanceListenerSurvivesHolderKill: the listener's original
// creator is SIGKILLed — the ungraceful-master case — and the co-holding
// standby still accepts. socket(7)/close(2): a process's death closes its
// descriptors, but the socket itself is freed only when *all* references
// are gone; the standby's passed descriptor is such a reference.
func TestConformanceListenerSurvivesHolderKill(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		cp, ok := p.(api.ConnPasser)
		if !ok {
			return 90
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		readyR, readyW, err := p.Pipe()
		if err != nil {
			return 2
		}
		pid, err := p.Fork(func(c api.OS) {
			ccp := c.(api.ConnPasser)
			lfd, err := c.Listen("127.0.0.1:7804")
			if err != nil {
				c.Exit(11)
			}
			if err := ccp.PassConnection(w, lfd); err != nil {
				c.Exit(12)
			}
			_, _ = c.Write(readyW, []byte{'r'})
			for { // hold the listener without accepting, until killed
				time.Sleep(time.Millisecond)
				c.SignalsDrain()
			}
		})
		if err != nil {
			return 3
		}
		lfd2, err := cp.ReceiveConnection(r)
		if err != nil {
			return 4
		}
		buf := make([]byte, 1)
		if n, _ := p.Read(readyR, buf); n != 1 {
			return 5
		}
		if err := p.Kill(pid, api.SIGKILL); err != nil {
			return 6
		}
		res, err := p.Wait(pid)
		if err != nil || res.Signaled != api.SIGKILL {
			return 7
		}
		// First accept after the holder's violent death.
		done := make(chan int, 1)
		go func() {
			cfd, err := p.Connect("127.0.0.1:7804")
			if err != nil {
				done <- 1
				return
			}
			defer p.Close(cfd)
			if _, err := p.Write(cfd, []byte{'x'}); err != nil {
				done <- 2
				return
			}
			b := make([]byte, 1)
			if n, _ := p.Read(cfd, b); n != 1 || b[0] != 'S' {
				done <- 3
				return
			}
			done <- 0
		}()
		conn, err := p.Accept(lfd2)
		if err != nil {
			return 8
		}
		if n, _ := p.Read(conn, buf); n != 1 {
			return 9
		}
		if _, err := p.Write(conn, []byte{'S'}); err != nil {
			return 10
		}
		_ = p.Close(conn)
		return <-done
	})
}

// TestConformanceListenerMidHandoverConnExactlyOnce: a connection the old
// master accepted and then passed to a worker *during* the listener
// handover is served exactly once — by that worker. It is not lost (the
// passed reference keeps it alive: unix(7) duplicates the descriptor into
// the worker) and not double-served (accept(2) dequeued it from the
// backlog before the handover, so the standby can never see it again).
func TestConformanceListenerMidHandoverConnExactlyOnce(t *testing.T) {
	worker := func(c api.OS, argvDR int) {
		ccp := c.(api.ConnPasser)
		conn, err := ccp.ReceiveConnection(argvDR)
		if err != nil {
			c.Exit(21)
		}
		buf := make([]byte, 1)
		if n, _ := c.Read(conn, buf); n != 1 {
			c.Exit(22)
		}
		if _, err := c.Write(conn, []byte{'W'}); err != nil {
			c.Exit(23)
		}
		_ = c.Close(conn)
		c.Exit(0)
	}
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		cp, ok := p.(api.ConnPasser)
		if !ok {
			return 90
		}
		lfd, err := p.Listen("127.0.0.1:7805")
		if err != nil {
			return 1
		}
		dr, dw, err := p.Pipe() // dispatch pipe to the worker
		if err != nil {
			return 2
		}
		sr, sw, err := p.Pipe() // control pipe to the standby
		if err != nil {
			return 3
		}
		wpid, err := p.Fork(func(c api.OS) { worker(c, dr) })
		if err != nil {
			return 4
		}
		spid, err := p.Fork(func(c api.OS) {
			ccp := c.(api.ConnPasser)
			lfd2, err := ccp.ReceiveConnection(sr)
			if err != nil {
				c.Exit(31)
			}
			conn, err := c.Accept(lfd2)
			if err != nil {
				c.Exit(32)
			}
			buf := make([]byte, 1)
			if n, _ := c.Read(conn, buf); n != 1 {
				c.Exit(33)
			}
			if _, err := c.Write(conn, []byte{'S'}); err != nil {
				c.Exit(34)
			}
			_ = c.Close(conn)
			c.Exit(0)
		})
		if err != nil {
			return 5
		}

		// Client 1 arrives before the handover begins.
		c1 := make(chan int, 1)
		go func() {
			cfd, err := p.Connect("127.0.0.1:7805")
			if err != nil {
				c1 <- 1
				return
			}
			defer p.Close(cfd)
			if _, err := p.Write(cfd, []byte{'x'}); err != nil {
				c1 <- 2
				return
			}
			buf := make([]byte, 1)
			if n, _ := p.Read(cfd, buf); n != 1 || buf[0] != 'W' {
				c1 <- 3
				return
			}
			// Exactly once: after the worker's single response the stream
			// ends. A second serve would show up as more bytes here.
			if n, _ := p.Read(cfd, buf); n != 0 {
				c1 <- 4
				return
			}
			c1 <- 0
		}()

		conn, err := p.Accept(lfd) // dequeue client 1 on the old master
		if err != nil {
			return 6
		}
		// Handover starts: the standby co-holds the listener...
		if err := cp.PassConnection(sw, lfd); err != nil {
			return 7
		}
		// ...and mid-handover the already-accepted connection goes to a
		// worker. The master then drops its own reference.
		if err := cp.PassConnection(dw, conn); err != nil {
			return 8
		}
		_ = p.Close(conn)
		if got := <-c1; got != 0 {
			return 100 + got
		}
		wres, err := p.Wait(wpid)
		if err != nil || wres.ExitCode != 0 {
			return 9
		}

		// Client 2 arrives after the handover: the standby serves it from
		// its copy of the listener.
		c2 := make(chan int, 1)
		go func() {
			cfd, err := p.Connect("127.0.0.1:7805")
			if err != nil {
				c2 <- 1
				return
			}
			defer p.Close(cfd)
			if _, err := p.Write(cfd, []byte{'x'}); err != nil {
				c2 <- 2
				return
			}
			buf := make([]byte, 1)
			if n, _ := p.Read(cfd, buf); n != 1 || buf[0] != 'S' {
				c2 <- 3
				return
			}
			c2 <- 0
		}()
		if got := <-c2; got != 0 {
			return 200 + got
		}
		sres, err := p.Wait(spid)
		if err != nil || sres.ExitCode != 0 {
			return 10
		}
		return 0
	})
}

// TestConformanceListenerInFlightOutlivesSender: the sender passes its
// listener and exits before the receiver has taken it. unix(7): a
// descriptor in flight holds its open file description, so the socket
// survives, and the receiver's first accept on it succeeds — the window a
// hot standby is in between its spawn and its first receive.
func TestConformanceListenerInFlightOutlivesSender(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		cp, ok := p.(api.ConnPasser)
		if !ok {
			return 90
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			lfd, err := c.Listen("127.0.0.1:7806")
			if err != nil {
				c.Exit(11)
			}
			if err := c.(api.ConnPasser).PassConnection(w, lfd); err != nil {
				c.Exit(12)
			}
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
			return 3
		}
		lfd, err := cp.ReceiveConnection(r)
		if err != nil {
			return 4
		}
		done := make(chan int, 1)
		go func() {
			cfd, err := p.Connect("127.0.0.1:7806")
			if err != nil {
				done <- 1
				return
			}
			_ = p.Close(cfd)
			done <- 0
		}()
		conn, err := p.Accept(lfd)
		if err != nil {
			return 5
		}
		_ = p.Close(conn)
		return <-done
	})
}

// TestConformanceListenerDroppedInFlightUnbinds: the sender passes its
// listener and exits, and the receiver closes its end without taking it.
// unix(7): descriptors still in flight when the receiving socket closes
// are closed, so the last reference is gone and the address binds again.
func TestConformanceListenerDroppedInFlightUnbinds(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			lfd, err := c.Listen("127.0.0.1:7807")
			if err != nil {
				c.Exit(11)
			}
			if err := c.(api.ConnPasser).PassConnection(w, lfd); err != nil {
				c.Exit(12)
			}
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
			return 3
		}
		_ = p.Close(w)
		if err := p.Close(r); err != nil {
			return 4
		}
		lfd, err := p.Listen("127.0.0.1:7807")
		if err != nil {
			return 5
		}
		_ = p.Close(lfd)
		return 0
	})
}
