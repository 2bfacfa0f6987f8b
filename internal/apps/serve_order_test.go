package apps

import (
	"strconv"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/baseline/native"
)

// connWrites counts the bytes serveRequestLine writes to one descriptor.
type connWrites struct {
	api.OS
	conn    int
	written int
}

func (c *connWrites) Write(fd int, buf []byte) (int, error) {
	n, err := c.OS.Write(fd, buf)
	if fd == c.conn {
		c.written += n
	}
	return n, err
}

// runNative runs prog as a program of a fresh native kernel and fails the
// test unless it exits 0.
func runNative(t *testing.T, setup func(k *native.Kernel), prog api.Program) {
	t.Helper()
	k := native.NewKernel()
	if setup != nil {
		setup(k)
	}
	if err := k.RegisterProgram("/bin/order-test", prog); err != nil {
		t.Fatal(err)
	}
	res, err := k.Launch("/bin/order-test", []string{"/bin/order-test"})
	if err != nil {
		t.Fatal(err)
	}
	if code := waitFor(t, "native", res.Done, res.Process, res.ExitCode)(t); code != 0 {
		t.Fatalf("program exit = %d", code)
	}
}

// The fleet worker's completion byte rides on serveRequestLine's last hook:
// it must run exactly once per served file, after the whole file has been
// read and before the reply's final segment, whatever the file's size, and
// never for a request that found no file.
func TestServeRunsLastBeforeTheFinalWrite(t *testing.T) {
	sizes := []int{0, 1, serveBufLen - 8, serveBufLen, 3*serveBufLen + 17}
	runNative(t, func(k *native.Kernel) {
		for i, n := range sizes {
			if err := k.FS.WriteFile("/f"+strconv.Itoa(i), make([]byte, n), 0644); err != nil {
				t.Fatal(err)
			}
		}
	}, func(p api.OS, _ []string) int {
		buf := make([]byte, serveBufLen)
		for i, n := range sizes {
			r, w, err := p.Pipe()
			if err != nil {
				return 1
			}
			c := &connWrites{OS: p, conn: w}
			calls, at := 0, -1
			serveRequestLine(c, w, "", "GET /f"+strconv.Itoa(i), buf, func() { calls++; at = c.written })
			reply := len("OK "+strconv.Itoa(n)+"\n") + n
			// The final segment is what is left after the last full buffer.
			final := reply % serveBufLen
			if final == 0 {
				final = serveBufLen
			}
			if c.written != reply || calls != 1 || at != reply-final {
				t.Errorf("%d-byte file: wrote %d of %d, last ran %d times after %d bytes, want once after %d",
					n, c.written, reply, calls, at, reply-final)
			}
			_ = p.Close(r)
			_ = p.Close(w)
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		calls := 0
		serveRequestLine(p, w, "", "GET /missing", buf, func() { calls++ })
		if calls != 0 {
			t.Errorf("a 404 ran last %d times", calls)
		}
		_ = p.Close(r)
		_ = p.Close(w)
		return 0
	})
}

// A dispatcher backing off for a free worker wakes when a status reader
// returns a credit, not when its sleep runs out; the bell's byte is taken
// back, so the next backoff sleeps its full length again.
func TestFleetBackoffEndsWithAReturnedCredit(t *testing.T) {
	runNative(t, nil, func(p api.OS, _ []string) int {
		m := &fleetMaster{p: p, sleep: newPollSleeper(p), bell: newPollSleeper(p)}
		if m.bell == nil {
			t.Error("native personality has no Poll")
			return 1
		}
		rang := make(chan bool, 1)
		if err := p.(api.Threader).SpawnThread(func() {
			// The status reader's side: wait until the dispatcher sleeps,
			// then return a credit.
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				m.mu.Lock()
				ring := m.claimBellLocked()
				m.mu.Unlock()
				if ring {
					_ = writeAll(p, m.bell.w, []byte{'c'})
					rang <- true
					return
				}
			}
			rang <- false
		}); err != nil {
			return 1
		}
		start := time.Now()
		m.awaitCredit(10_000_000)
		if waited := time.Since(start); waited > 5*time.Second {
			t.Errorf("backoff slept %v; a returned credit should have ended it", waited)
		}
		if !<-rang {
			t.Error("the dispatcher never waited for a credit")
		}
		m.mu.Lock()
		ring := m.claimBellLocked()
		m.mu.Unlock()
		if ring {
			t.Error("a status byte with no dispatcher waiting claimed the bell")
		}
		start = time.Now()
		m.awaitCredit(20_000)
		if waited := time.Since(start); waited < 15*time.Millisecond {
			t.Errorf("second backoff slept %v of 20ms: the bell kept a stale byte", waited)
		}
		return 0
	})
}
