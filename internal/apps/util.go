// Package apps contains the unmodified multi-process applications the
// paper evaluates Graphene with (§6): a shell with coreutils, lighttpd-
// and Apache-style web servers with an ApacheBench-like client, a
// gcc/make-style parallel compiler driver, and Unixbench-style stress
// programs. Every program is written against api.OS only, so the same
// code runs on Graphene, a native process, and a KVM guest.
package apps

import (
	"strconv"
	"strings"

	"graphene/internal/api"
)

// readAll reads fd to EOF.
func readAll(p api.OS, fd int) ([]byte, error) {
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := p.Read(fd, buf)
		if n > 0 {
			out = append(out, buf[:n]...)
		}
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// writeAll writes all of data to fd.
func writeAll(p api.OS, fd int, data []byte) error {
	for len(data) > 0 {
		n, err := p.Write(fd, data)
		if err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readFile slurps a file by path.
func readFile(p api.OS, path string) ([]byte, error) {
	fd, err := p.Open(path, api.ORdOnly, 0)
	if err != nil {
		return nil, err
	}
	defer p.Close(fd)
	return readAll(p, fd)
}

// writeFile creates/replaces a file with data.
func writeFile(p api.OS, path string, data []byte) error {
	fd, err := p.Open(path, api.OCreate|api.OTrunc|api.OWrOnly, 0644)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	return writeAll(p, fd, data)
}

// printf writes formatted output to stdout (fd 1).
func printf(p api.OS, s string) {
	_ = writeAll(p, 1, []byte(s))
}

// atoiOr parses s, falling back to def.
func atoiOr(s string, def int) int {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return def
	}
	return n
}

// readLine reads fd up to and including '\n' (byte at a time: fine for
// the tiny HTTP-ish protocol below).
func readLine(p api.OS, fd int) (string, error) {
	var sb strings.Builder
	one := make([]byte, 1)
	for {
		n, err := p.Read(fd, one)
		if err != nil {
			return sb.String(), err
		}
		if n == 0 {
			if sb.Len() == 0 {
				return "", api.EPIPE
			}
			return sb.String(), nil
		}
		if one[0] == '\n' {
			return sb.String(), nil
		}
		sb.WriteByte(one[0])
	}
}

// pollSleeper provides bounded sleeps to programs on an api.OS, which has
// no sleep syscall: Poll on a pipe that is never written returns
// ETIMEDOUT after exactly the timeout. Both pipe ends stay open for the
// program's lifetime so the read side never turns readable with EOF.
// Safe for concurrent use from multiple threads (each Poll registers its
// own waiter).
type pollSleeper struct {
	poller api.Poller
	fds    []int
	w      int // the pipe's write end; a byte written there ends a sleep early
}

// newPollSleeper allocates the sleep pipe; returns nil when the
// personality lacks Poll (callers then simply do not back off).
func newPollSleeper(p api.OS) *pollSleeper {
	poller, ok := p.(api.Poller)
	if !ok {
		return nil
	}
	r, w, err := p.Pipe()
	if err != nil {
		return nil
	}
	return &pollSleeper{poller: poller, fds: []int{r}, w: w}
}

func (s *pollSleeper) sleepUS(us int64) {
	if s == nil || us <= 0 {
		return
	}
	_, _ = s.poller.Poll(s.fds, us)
}

// nowUS reads the host clock in microseconds, 0 on error.
func nowUS(p api.OS) int64 {
	t, err := p.Gettimeofday()
	if err != nil {
		return 0
	}
	return t
}

// parseKV splits "key=value" extra arguments (fleet/loadgen tuning knobs);
// bare words map to "".
func parseKV(args []string) map[string]string {
	out := make(map[string]string, len(args))
	for _, a := range args {
		if i := strings.IndexByte(a, '='); i >= 0 {
			out[a[:i]] = a[i+1:]
		} else {
			out[a] = ""
		}
	}
	return out
}

// kvInt reads an integer tuning knob with a default.
func kvInt(kv map[string]string, key string, def int) int {
	v, ok := kv[key]
	if !ok {
		return def
	}
	return atoiOr(v, def)
}

// touchHeap grows the heap by n bytes and touches every page, modeling an
// application's working set (compilers' ASTs, servers' buffer caches) so
// the Figure 4 footprint measurements see realistic memory use.
func touchHeap(p api.OS, n uint64) uint64 {
	brk0, err := p.Brk(0)
	if err != nil {
		return 0
	}
	top, err := p.Brk(brk0 + n)
	if err != nil {
		return 0
	}
	for addr := brk0; addr < top; addr += 4096 {
		_ = p.MemWrite(addr, []byte{0xAA})
	}
	return brk0
}

// burnCPU performs deterministic work proportional to n, standing in for
// computation (compilation, compression) in workloads.
func burnCPU(n int) uint64 {
	var acc uint64 = 0x517cc1b727220a95
	for i := 0; i < n; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
		acc *= 0x2545f4914f6cdd1d
	}
	return acc
}
