package posix

import (
	"sync"

	"graphene/internal/api"
)

// Children is a process's table of children for wait(2). The zero value is
// an empty table.
type Children struct {
	mu   sync.Mutex
	cond sync.Cond
	// kids maps each child's PID to its exit, nil while it runs.
	kids map[int]*api.WaitResult
	// closed is set once the process has exited: a thread of it still
	// parked in Wait (another thread's kill ended the process) must not
	// sleep on for ever.
	closed bool
}

func (c *Children) lock() {
	c.mu.Lock()
	if c.kids == nil {
		c.kids = make(map[int]*api.WaitResult)
		c.cond.L = &c.mu
	}
}

// Add records a new child.
func (c *Children) Add(pid int) {
	c.lock()
	c.kids[pid] = nil
	c.mu.Unlock()
}

// Exit records that child pid exited with status, killed by sig when sig is
// not 0. The first report wins and wakes waiters; Exit reports false for a
// later one and for a PID that is not a child.
func (c *Children) Exit(pid, status int, sig api.Signal) bool {
	c.lock()
	defer c.mu.Unlock()
	if res, ok := c.kids[pid]; !ok || res != nil {
		return false
	}
	c.kids[pid] = &api.WaitResult{PID: pid, ExitCode: status, Signaled: sig}
	c.cond.Broadcast()
	return true
}

// Forget drops a child whose fork failed; a waiter for it gets ECHILD.
func (c *Children) Forget(pid int) {
	c.lock()
	delete(c.kids, pid)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Close records that the process has exited and wakes its waiters.
func (c *Children) Close() {
	c.lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Wait reaps child pid, or any child when pid is -1, sleeping until one has
// exited: ECHILD when there is no such child, EINTR once the process has
// exited.
func (c *Children) Wait(pid int) (api.WaitResult, error) {
	c.lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return api.WaitResult{}, api.EINTR
		}
		any := false
		for k, res := range c.kids {
			if pid > 0 && k != pid {
				continue
			}
			any = true
			if res != nil {
				delete(c.kids, k)
				return *res, nil
			}
		}
		if !any {
			return api.WaitResult{}, api.ECHILD
		}
		c.cond.Wait()
	}
}
