package conformance

import (
	"strconv"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// TestConformanceExecReplacesImage pins execve(2): "the program that is
// currently being run by the calling process [is replaced] with a new
// program, with newly initialized stack, heap, and (initialized and
// uninitialized) data segments". A pre-exec mapping is gone afterwards,
// and the break is back at the heap's start.
func TestConformanceExecReplacesImage(t *testing.T) {
	extra := map[string]api.Program{
		"/bin/after": func(p api.OS, argv []string) int {
			addr, _ := strconv.ParseUint(argv[1], 10, 64)
			heap, _ := strconv.ParseUint(argv[2], 10, 64)
			if err := p.MemRead(addr, make([]byte, 4)); err == nil {
				return 12
			}
			if brk, err := p.Brk(0); err != nil || brk != heap {
				return 13
			}
			return 0
		},
	}
	runEverywhere(t, extra, func(p api.OS, argv []string) int {
		heap, err := p.Brk(0)
		if err != nil {
			return 1
		}
		if _, err := p.Brk(heap + 64<<10); err != nil {
			return 2
		}
		addr, err := p.Mmap(0, host.PageSize, api.ProtRead|api.ProtWrite)
		if err != nil {
			return 3
		}
		if err := p.MemWrite(addr, []byte("live")); err != nil {
			return 4
		}
		_ = p.Exec("/bin/after", []string{"/bin/after",
			strconv.FormatUint(addr, 10), strconv.FormatUint(heap, 10)})
		return 5
	})
}

// TestConformanceKilledThreadUnwinds: SIGKILL ends every thread of the
// process (signal(7): the default action terminates the process), so a
// child spinning in its own loop does not outlive the kill — its
// goroutine unwinds soon after wait(2) reports the death.
func TestConformanceKilledThreadUnwinds(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		spinning := make(chan struct{})
		gone := make(chan struct{})
		pid, err := p.Fork(func(c api.OS) {
			defer close(gone)
			close(spinning)
			for {
				time.Sleep(time.Millisecond)
				c.SignalsDrain()
			}
		})
		if err != nil {
			return 1
		}
		<-spinning
		if err := p.Kill(pid, api.SIGKILL); err != nil {
			return 2
		}
		if res, err := p.Wait(pid); err != nil || res.Signaled != api.SIGKILL {
			return 3
		}
		select {
		case <-gone:
		case <-time.After(2 * time.Second):
			return 4
		}
		return 0
	})
}
