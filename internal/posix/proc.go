package posix

import (
	"strconv"
	"strings"

	"graphene/internal/api"
)

// ProcInfo is what /proc shows of one process.
type ProcInfo struct {
	Program   string
	Argv      []string
	Cwd       string
	PID, PPID int
	Zombie    bool
}

// IsProc reports whether the clean absolute path is in /proc.
func IsProc(path string) bool { return path == "/proc" || strings.HasPrefix(path, "/proc/") }

// ProcPath splits a /proc path into the process it names ("self" or a PID)
// and the field, status when it names none. who is empty for /proc itself,
// whose listing is the personality's to decide.
func ProcPath(path string) (who, field string) {
	rest := strings.TrimPrefix(strings.TrimPrefix(path, "/proc"), "/")
	if rest == "" {
		return "", ""
	}
	who, field, ok := strings.Cut(rest, "/")
	if !ok {
		field = "status"
	}
	return who, field
}

// ProcStat is stat(2) of a /proc file whose contents are data.
func ProcStat(path string, data []byte) api.Stat {
	return api.Stat{Name: path, Size: int64(len(data)), Mode: 0444}
}

// Render produces one /proc/[pid] field (proc(5)): comm, cmdline, cwd,
// status or stat; ENOENT for any other.
func (i ProcInfo) Render(field string) (string, api.Errno) {
	comm := "unknown"
	if i.Program != "" {
		comm = i.Program[strings.LastIndexByte(i.Program, '/')+1:]
	}
	pid, ppid := strconv.Itoa(i.PID), strconv.Itoa(i.PPID)
	switch field {
	case "comm":
		return comm + "\n", 0
	case "cmdline":
		return strings.Join(i.Argv, "\x00") + "\x00", 0
	case "cwd":
		return i.Cwd + "\n", 0
	case "status":
		state := "R (running)"
		if i.Zombie {
			state = "Z (zombie)"
		}
		return "Name:\t" + comm + "\nPid:\t" + pid + "\nPPid:\t" + ppid + "\nState:\t" + state + "\n", 0
	case "stat":
		return pid + " (" + comm + ") R " + ppid + "\n", 0
	}
	return "", api.ENOENT
}
