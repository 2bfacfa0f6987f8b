package liblinux

import (
	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/posix"
)

// Listen binds a TCP-style listener at addr, subject to the manifest's
// net_listen rules enforced by the reference monitor.
func (p *Process) Listen(addr api.SockAddr) (int, error) {
	h, err := p.pal.DkStreamOpen("tcp.srv:"+string(addr), 0, 0)
	if err != nil {
		return 0, err
	}
	return p.fds.Alloc(&posix.Desc{Kind: posix.Listener, Handle: h, Path: "tcp.srv:" + string(addr)}), nil
}

// Accept blocks for an incoming connection on a listener descriptor.
func (p *Process) Accept(fd int) (int, error) {
	d, err := p.fds.GetSock(fd, posix.Listener)
	if err != nil {
		return 0, err
	}
	conn, err := p.pal.DkStreamWaitForClient(d.Handle)
	if err != nil {
		return 0, err
	}
	return p.fds.Alloc(&posix.Desc{Kind: posix.Socket, Handle: conn, Path: d.Path}), nil
}

// Connect opens a TCP-style connection to addr, subject to net_connect.
func (p *Process) Connect(addr api.SockAddr) (int, error) {
	h, err := p.pal.DkStreamOpen("tcp:"+string(addr), 0, 0)
	if err != nil {
		return 0, err
	}
	return p.fds.Alloc(&posix.Desc{Kind: posix.Socket, Handle: h, Path: "tcp:" + string(addr)}), nil
}

// PassConnection sends an accepted connection's handle to another process
// over a pipe descriptor — the handle-passing pattern preforked servers
// use in place of inheriting listeners (§5, "Inheriting file handles").
// A listening socket passes too: the standby-master handover.
func (p *Process) PassConnection(overFD, connFD int) error {
	over, conn, err := p.fds.Passable(overFD, connFD)
	if err != nil {
		return err
	}
	return p.pal.DkSendHandle(over.Handle, conn.Handle)
}

// ReceiveConnection receives a handle sent by PassConnection, installing
// a stream as a new socket descriptor or a passed listening socket as a
// listener descriptor (ready for Accept — the receiver co-holds the same
// listening socket, as with an fd duplicated via SCM_RIGHTS, unix(7)).
func (p *Process) ReceiveConnection(overFD int) (int, error) {
	over, err := p.fds.GetSock(overFD, posix.Pipe, posix.Socket)
	if err != nil {
		return 0, err
	}
	h, err := p.pal.DkReceiveHandle(over.Handle)
	if err != nil {
		return 0, err
	}
	switch h.Kind {
	case host.HandleStream:
		return p.fds.Alloc(&posix.Desc{Kind: posix.Socket, Handle: h, Path: h.Stream.Name}), nil
	case host.HandleListener:
		return p.fds.Alloc(&posix.Desc{Kind: posix.Listener, Handle: h, Path: h.Listener.Name}), nil
	}
	return 0, api.EINVAL
}

// SpawnThread runs fn as an additional guest thread of this process
// (lighttpd-style multithreading). The thread shares the fd table and all
// libOS state, as threads do.
func (p *Process) SpawnThread(fn func()) error {
	_, err := p.pal.DkThreadCreate(func(tid int) {
		defer func() {
			// A thread calling Exit unwinds with processExited; honor it.
			if r := recover(); r != nil {
				if _, ok := r.(processExited); ok {
					p.mu.Lock()
					code := p.exitRequested
					p.mu.Unlock()
					p.doExit(code, 0)
					return
				}
				panic(r)
			}
		}()
		fn()
	})
	return err
}

// SandboxCreate detaches this process into a fresh sandbox restricted to
// fsView — the new library OS call of §6.6 (mod_auth worker isolation).
func (p *Process) SandboxCreate(fsView []string) error {
	return p.pal.DkSandboxCreate(fsView)
}

var _ api.OS = (*Process)(nil)
var _ api.SandboxCreator = (*Process)(nil)
var _ api.FaultPointer = (*Process)(nil)
var _ api.Elector = (*Process)(nil)
