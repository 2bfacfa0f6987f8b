package liblinux

import (
	"strconv"

	"graphene/internal/api"
	"graphene/internal/posix"
)

// procRead generates the contents of a /proc path. /proc is implemented
// entirely inside libLinux (§6.6): local PIDs are served from library
// state, remote PIDs are read over RPC (Table 2), and the host's /proc is
// unreachable, frustrating Memento-style side channels.
func (p *Process) procRead(path string) ([]byte, error) {
	who, field := posix.ProcPath(path)
	if who == "" {
		return []byte("self\n"), nil
	}
	pid := p.pid
	if who != "self" {
		n, err := strconv.ParseInt(who, 10, 64)
		if err != nil {
			return nil, api.ENOENT
		}
		pid = n
	}
	if pid == p.pid {
		v, errno := p.procInfo().Render(field)
		if errno != 0 {
			return nil, errno
		}
		return []byte(v), nil
	}
	// Remote PID: read over RPC (§4.2, Table 2 — "/proc/[pid]: read over
	// RPC"). Cross-sandbox PIDs are unreachable, so this also cannot leak
	// other sandboxes' metadata.
	v, err := p.helper.ProcMeta(pid, field)
	if err != nil {
		return nil, api.ToErrno(err)
	}
	return []byte(v), nil
}

// procInfo is what this process's /proc entry shows.
func (p *Process) procInfo() posix.ProcInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return posix.ProcInfo{Program: p.programPath, Argv: p.argv, Cwd: p.cwd, PID: int(p.pid), PPID: int(p.ppid), Zombie: p.dead}
}
