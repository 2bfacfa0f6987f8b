package conformance

import (
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
)

// These tests pin behaviour every personality takes from one POSIX process
// core (descriptor table, /proc fields, memory access errors). Each case
// once differed between native Linux and Graphene.

// readFile reads path to its end through a descriptor.
func readFile(p api.OS, path string) (string, error) {
	fd, err := p.Open(path, api.ORdOnly, 0)
	if err != nil {
		return "", err
	}
	defer p.Close(fd)
	var out []byte
	buf := make([]byte, 64)
	for {
		n, err := p.Read(fd, buf)
		if err != nil {
			return "", err
		}
		if n == 0 {
			return string(out), nil
		}
		out = append(out, buf[:n]...)
	}
}

// TestConformanceAcceptOnPipeIsENOTSOCK pins accept(2): "ENOTSOCK The file
// descriptor sockfd does not refer to a socket."
func TestConformanceAcceptOnPipeIsENOTSOCK(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		r, _, err := p.Pipe()
		if err != nil {
			return 1
		}
		if _, err := p.Accept(r); api.ToErrno(err) != api.ENOTSOCK {
			return 2
		}
		return 0
	})
}

// TestConformancePassConnectionOverFileIsENOTSOCK pins sendmsg(2), which
// carries SCM_RIGHTS: "ENOTSOCK The file descriptor sockfd does not refer
// to a socket." A connection cannot be passed over a regular file.
func TestConformancePassConnectionOverFileIsENOTSOCK(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		cp, ok := p.(api.ConnPasser)
		if !ok {
			return 90
		}
		fd, err := p.Open("/passfile", api.OCreate|api.ORdWr, 0644)
		if err != nil {
			return 1
		}
		lfd, err := p.Listen("127.0.0.1:7811")
		if err != nil {
			return 2
		}
		if _, err := p.Connect("127.0.0.1:7811"); err != nil {
			return 3
		}
		conn, err := p.Accept(lfd)
		if err != nil {
			return 4
		}
		if err := cp.PassConnection(fd, conn); api.ToErrno(err) != api.ENOTSOCK {
			return 5
		}
		return 0
	})
}

// TestConformanceFstatProcMatchesStat pins stat(2): stat and fstat
// "retrieve information about the file", so an open /proc file and its
// path describe the same size and mode.
func TestConformanceFstatProcMatchesStat(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		path := p.ProcSelfRoot() + "/self/status"
		fd, err := p.Open(path, api.ORdOnly, 0)
		if err != nil {
			return 1
		}
		fst, err := p.Fstat(fd)
		if err != nil {
			return 2
		}
		st, err := p.Stat(path)
		if err != nil {
			return 3
		}
		if st.Size == 0 || fst.Size != st.Size || fst.Mode != st.Mode {
			return 4
		}
		return 0
	})
}

// TestConformanceProcSelfComm pins proc(5): /proc/[pid]/comm holds the
// command name, the executable's file name without its directory.
func TestConformanceProcSelfComm(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		comm, err := readFile(p, p.ProcSelfRoot()+"/self/comm")
		if err != nil {
			return 1
		}
		if comm != "main\n" {
			return 2
		}
		return 0
	})
}

// TestConformanceProcSelfCmdline pins proc(5): /proc/[pid]/cmdline holds
// the command line, "a set of strings separated by null bytes ('\0'), with
// a further null byte after the last string."
func TestConformanceProcSelfCmdline(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		cmdline, err := readFile(p, p.ProcSelfRoot()+"/self/cmdline")
		if err != nil {
			return 1
		}
		if cmdline != "/bin/main\x00one\x00two\x00" {
			return 2
		}
		return 0
	}, "one", "two")
}

// TestConformanceBadAddressIsEFAULT pins what a system call does with an
// address outside the process's mappings: it fails with "EFAULT ... outside
// your accessible address space" (read(2), write(2)) and raises no signal.
// Reads and writes of never-mapped and munmapped pages, round after round,
// each answer EFAULT, and the exit status is the program's own.
func TestConformanceBadAddressIsEFAULT(t *testing.T) {
	const nullPage = 0x10
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		buf := make([]byte, 8)
		for i := 0; i < 200; i++ {
			addr, err := p.Mmap(0, host.PageSize, api.ProtRead|api.ProtWrite)
			if err != nil {
				return 1
			}
			if err := p.Munmap(addr, host.PageSize); err != nil {
				return 2
			}
			for _, bad := range []uint64{nullPage, addr} {
				if err := p.MemRead(bad, buf); api.ToErrno(err) != api.EFAULT {
					return 3
				}
				if err := p.MemWrite(bad, buf); api.ToErrno(err) != api.EFAULT {
					return 4
				}
			}
			p.SignalsDrain()
		}
		return 0
	})
}
