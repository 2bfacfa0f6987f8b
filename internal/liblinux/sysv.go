package liblinux

import (
	"graphene/internal/api"
	"graphene/internal/host"
)

// System V IPC system calls delegate to the coordination framework
// (internal/ipc): key mappings are managed by the sandbox leader, contents
// are stored at the owning picoprocess, and ownership migrates toward the
// heaviest user (§4.2, Table 2). Each shim records a flight-recorder
// syscall event (entry/exit latency, key or ID digest, errno) so a dump
// shows the guest-visible operation above the RPC spans it fanned into.

// Msgget maps key to a message queue ID.
func (p *Process) Msgget(key int, flags int) (int, error) {
	start := p.sysEnter()
	id, err := p.helper.Msgget(int64(key), flags)
	p.sysExit(start, host.SysMsgget, uint64(key), err)
	if err != nil {
		return 0, err
	}
	return int(id), nil
}

// Msgsnd sends a message: to a remote queue over the owner's send ring
// when one is attached, else as one acknowledged RPC; EIDRM once the
// queue is removed.
func (p *Process) Msgsnd(id int, mtype int64, data []byte, flags int) error {
	defer p.SignalsDrain()
	start := p.sysEnter()
	err := p.helper.Msgsnd(int64(id), mtype, data, flags)
	p.sysExit(start, host.SysMsgsnd, uint64(id), err)
	return err
}

// Msgrcv receives the first message matching mtype. A guest signal
// delivered while blocked interrupts the park with EINTR (msgrcv(2));
// the handler then runs in the deferred drain.
func (p *Process) Msgrcv(id int, mtype int64, buf []byte, flags int) (int64, []byte, error) {
	defer p.SignalsDrain()
	start := p.sysEnter()
	mt, data, err := p.helper.MsgrcvIntr(int64(id), mtype, flags, p.sig.Interrupt())
	p.sysExit(start, host.SysMsgrcv, uint64(id), err)
	if err != nil {
		return 0, nil, err
	}
	if buf != nil && len(data) > len(buf) {
		return 0, nil, api.E2BIG
	}
	return mt, data, nil
}

// MsgctlRmid destroys a message queue.
func (p *Process) MsgctlRmid(id int) error {
	start := p.sysEnter()
	err := p.helper.MsgRmid(int64(id))
	p.sysExit(start, host.SysMsgctl, uint64(id), err)
	return err
}

// Semget maps key to a semaphore set ID.
func (p *Process) Semget(key int, nsems int, flags int) (int, error) {
	start := p.sysEnter()
	id, err := p.helper.Semget(int64(key), nsems, flags)
	p.sysExit(start, host.SysSemget, uint64(key), err)
	if err != nil {
		return 0, err
	}
	return int(id), nil
}

// Semop performs sembuf operations, blocking as needed. Interruptible by
// guest signals with EINTR, like Msgrcv.
func (p *Process) Semop(id int, ops []api.SemBuf) error {
	defer p.SignalsDrain()
	start := p.sysEnter()
	err := p.helper.SemopIntr(int64(id), ops, p.sig.Interrupt())
	p.sysExit(start, host.SysSemop, uint64(id), err)
	return err
}

// SemctlRmid destroys a semaphore set.
func (p *Process) SemctlRmid(id int) error {
	start := p.sysEnter()
	err := p.helper.SemRmid(int64(id))
	p.sysExit(start, host.SysSemctl, uint64(id), err)
	return err
}
