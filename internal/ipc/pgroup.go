package ipc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"graphene/internal/api"
)

// pgroupState is the leader's process-group registry — the second of
// Linux's three signaling namespaces Graphene implements (§4.2). Group
// membership is a name-to-set mapping, so it lives at the leader like the
// other namespaces; delivery fans out point-to-point from the signaler.
type pgroupState struct {
	mu     sync.Mutex
	groups map[int64]map[int64]string // pgid -> pid -> helper address
}

func newPgroupState() *pgroupState {
	return &pgroupState{groups: make(map[int64]map[int64]string)}
}

func (g *pgroupState) join(pgid, pid int64, addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	// A PID belongs to exactly one group: leave any previous one.
	for _, members := range g.groups {
		delete(members, pid)
	}
	m := g.groups[pgid]
	if m == nil {
		m = make(map[int64]string)
		g.groups[pgid] = m
	}
	m[pid] = addr
}

func (g *pgroupState) leave(pgid, pid int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.groups[pgid]; m != nil {
		delete(m, pid)
		if len(m) == 0 {
			delete(g.groups, pgid)
		}
	}
}

// dropAddr removes every member hosted at a crashed helper from every
// group (member reaping; SignalGroup then stops fanning out to the ghost)
// and reports whether there was one.
func (g *pgroupState) dropAddr(addr string) (dropped bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for pgid, members := range g.groups {
		for pid, a := range members {
			if a == addr {
				delete(members, pid)
				dropped = true
			}
		}
		if len(members) == 0 {
			delete(g.groups, pgid)
		}
	}
	return dropped
}

// pgMember is one (pid, addr) group entry.
type pgMember struct {
	PID  int64
	Addr string
}

func (g *pgroupState) members(pgid int64) []pgMember {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.groups[pgid]
	out := make([]pgMember, 0, len(m))
	for pid, addr := range m {
		out = append(out, pgMember{PID: pid, Addr: addr})
	}
	return out
}

func encodeMembers(ms []pgMember) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(ms)))
	for _, m := range ms {
		out = binary.LittleEndian.AppendUint64(out, uint64(m.PID))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Addr)))
		out = append(out, m.Addr...)
	}
	return out
}

func decodeMembers(blob []byte) ([]pgMember, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("ipc: short pgroup blob")
	}
	n := int(binary.LittleEndian.Uint32(blob))
	off := 4
	out := make([]pgMember, 0, n)
	for i := 0; i < n; i++ {
		if off+12 > len(blob) {
			return nil, fmt.Errorf("ipc: truncated pgroup blob")
		}
		pid := int64(binary.LittleEndian.Uint64(blob[off:]))
		al := int(binary.LittleEndian.Uint32(blob[off+8:]))
		off += 12
		if off+al > len(blob) {
			return nil, fmt.Errorf("ipc: truncated pgroup addr")
		}
		out = append(out, pgMember{PID: pid, Addr: string(blob[off : off+al])})
		off += al
	}
	return out, nil
}

// JoinGroup registers pid (hosted at this helper) in process group pgid.
func (h *Helper) JoinGroup(pgid, pid int64) error {
	_, err := h.callLeader(Frame{Type: MsgPgJoin, A: pgid, B: pid, S: h.Addr})
	if err == nil && pid == h.GuestPID {
		h.mu.Lock()
		h.ownPgid = pgid
		h.mu.Unlock()
	}
	return err
}

// LeaveGroup removes pid from pgid (process exit).
func (h *Helper) LeaveGroup(pgid, pid int64) error {
	_, err := h.callLeader(Frame{Type: MsgPgLeave, A: pgid, B: pid})
	if pid == h.GuestPID {
		h.mu.Lock()
		h.ownPgid = 0
		h.mu.Unlock()
	}
	return err
}

// SignalGroup delivers sig to every member of process group pgid, as
// kill(-pgid, sig) does. Unreachable members (racing an exit) are
// skipped; ESRCH is returned only when the group is empty or absent.
func (h *Helper) SignalGroup(pgid int64, sig api.Signal) error {
	resp, err := h.callLeader(Frame{Type: MsgPgMembers, A: pgid})
	if err != nil {
		return err
	}
	members, err := decodeMembers(resp.Blob)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		return api.ESRCH
	}
	delivered := 0
	for _, m := range members {
		if m.Addr == h.Addr {
			if h.svc.DeliverSignal(m.PID, sig) == 0 {
				delivered++
			}
			continue
		}
		c, err := h.dial(m.Addr)
		if err != nil {
			continue
		}
		// Deadline-bounded like every cross-helper RPC: one partitioned
		// member must cost at most one timeout, not hang the whole group
		// delivery loop.
		if _, err := c.CallTimeout(Frame{Type: MsgSignal, A: m.PID, B: int64(sig)}, rpcCallTimeout); err == nil {
			delivered++
		}
	}
	if delivered == 0 {
		return api.ESRCH
	}
	return nil
}
