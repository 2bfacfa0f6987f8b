package ipc

import (
	"encoding/binary"
	"fmt"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/pal"
	"graphene/internal/posix"
)

// migrateThreshold is how many consecutive remote operations from one peer
// trigger ownership migration (queues migrate to the consumer, semaphores
// to the most frequent acquirer — §4.3).
const migrateThreshold = 4

// msgMessage is one System V message.
type msgMessage struct {
	Type int64
	Data []byte
}

// msgQueue is the owner-side state of one System V message queue. The
// owner stores the messages; remote receivers go through RPC to the owner
// (§4.2), and a remote sender does too until it is granted the queue's
// send ring (ring.go).
type msgQueue struct {
	sysvHeader

	msgs []msgMessage

	// sendRing is the kernel-bypass datapath (ring.go): it carries one
	// remote sender's messages to the owner. It is strictly an
	// optimization: reclaimGrantLocked folds it back into q.msgs at any
	// disruption (migration, removal, detach, shutdown).
	sendRing *host.RingSegment
	ringBuf  []byte // drain scratch, one slot's worth
}

func newMsgQueue(id, key int64) *msgQueue {
	return &msgQueue{sysvHeader: sysvHeader{sysvRef: sysvRef{NSSysVMsg, id}, key: key}}
}

// send appends a message and satisfies a compatible waiter. Ring-attached
// client pushes already in flight are ingested first so FIFO order holds.
func (q *msgQueue) send(mtype int64, data []byte) api.Errno {
	q.mu.Lock()
	if q.removed {
		q.mu.Unlock()
		return api.EIDRM
	}
	if q.movedTo != "" || q.migrating {
		q.mu.Unlock()
		return api.EXDEV
	}
	q.ingestRingLocked()
	q.msgs = append(q.msgs, msgMessage{Type: mtype, Data: append([]byte(nil), data...)})
	q.drainWaitersLocked()
	q.mu.Unlock()
	return 0
}

// ringBufLocked returns the drain scratch buffer. Caller holds q.mu.
func (q *msgQueue) ringBufLocked() []byte {
	if q.ringBuf == nil {
		q.ringBuf = make([]byte, host.RingSlotData)
	}
	return q.ringBuf
}

// ingestRingLocked moves every message the ring client has published into
// q.msgs. Popping under q.mu is what keeps a racing migration from losing
// messages — the handoff's snapshot runs under the same lock. Caller holds
// q.mu.
func (q *msgQueue) ingestRingLocked() {
	sr := q.sendRing
	if sr == nil {
		return
	}
	buf := q.ringBufLocked()
	for {
		mt, n, ok := sr.TryPop(buf)
		if !ok {
			return
		}
		q.msgs = append(q.msgs, msgMessage{Type: mt, Data: append([]byte(nil), buf[:n]...)})
	}
}

// reclaimGrantLocked revokes the send ring and folds what it holds into
// q.msgs — the detach used by migration, removal, explicit detach, and
// shutdown. After it returns the queue is ring-free and q.msgs is the
// complete FIFO state. Caller holds q.mu.
func (q *msgQueue) reclaimGrantLocked() {
	if sr := q.sendRing; sr != nil {
		sr.Revoke()
		sr.Seal()
		q.ingestRingLocked()
		q.sendRing = nil
	}
	q.drainWaitersLocked()
}

// grantLocked grants a send ring to the client with host PID pid, one
// bypass client at a time; EAGAIN declines for now.
func (q *msgQueue) grantLocked(p *pal.PAL, pid int) (*host.RingSegment, api.Errno) {
	if q.sendRing != nil {
		return nil, api.EAGAIN
	}
	sr, err := p.RingCreateMsg(pid)
	if err != nil {
		return nil, api.EAGAIN
	}
	q.sendRing = sr
	return sr, 0
}

// serveGrantLocked ingests the client's pushes on ring sr, waking parked
// waiters. It reports false once sr is no longer the queue's ring, folding
// a revoked one back.
func (q *msgQueue) serveGrantLocked(sr *host.RingSegment) bool {
	if q.sendRing != sr {
		return false
	}
	if sr.Revoked() {
		q.reclaimGrantLocked()
		return false
	}
	q.ingestRingLocked()
	q.drainWaitersLocked()
	return true
}

// drainWaitersLocked hands queued messages to compatible waiters in order.
func (q *msgQueue) drainWaitersLocked() {
	for {
		delivered := false
		for wi, w := range q.waiters {
			for mi, m := range q.msgs {
				if posix.MsgMatches(m.Type, w.mtype) {
					q.msgs = append(q.msgs[:mi], q.msgs[mi+1:]...)
					q.waiters = append(q.waiters[:wi], q.waiters[wi+1:]...)
					w.deliver(sysvResult{mtype: m.Type, data: m.Data})
					delivered = true
					break
				}
			}
			if delivered {
				break
			}
		}
		if !delivered {
			return
		}
	}
}

// recv pops the first matching message. If none and wait is set, deliver
// is parked until a message arrives, tagged (from, cookie) for a cancel;
// otherwise ENOMSG is delivered inline. deliver runs exactly once.
func (q *msgQueue) recv(mtype int64, wait bool, from string, cookie int64, deliver func(sysvResult)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.removed {
		deliver(sysvResult{errno: api.EIDRM})
		return
	}
	if q.movedTo != "" || q.migrating {
		deliver(sysvResult{errno: api.EXDEV})
		return
	}
	q.ingestRingLocked()
	for i, m := range q.msgs {
		if posix.MsgMatches(m.Type, mtype) {
			q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
			deliver(sysvResult{mtype: m.Type, data: m.Data})
			return
		}
	}
	if !wait {
		deliver(sysvResult{errno: api.ENOMSG})
		return
	}
	q.waiters = append(q.waiters, &sysvWaiter{mtype: mtype, from: from, cookie: cookie, deliver: deliver})
}

// removeLocked collapses the send ring first: ring-side messages still
// satisfy parked waiters (they linearize before the removal), then the
// rest fail with EIDRM. The client observes the revocation and re-routes
// to RPC, where it learns the queue is gone.
func (q *msgQueue) removeLocked() {
	q.reclaimGrantLocked()
	q.failWaitersLocked(api.EIDRM)
	q.msgs = nil
}

// snapshotLocked encodes the messages once the send ring collapses, so
// the blob is the complete FIFO state.
func (q *msgQueue) snapshotLocked() []byte {
	q.reclaimGrantLocked()
	q.failWaitersLocked(api.EXDEV)
	blob := encodeMessages(q.key, q.msgs)
	q.msgs = nil
	return blob
}

// mergeLocked appends the incoming messages after the queue's own; the
// send ring collapses first so the merged order is well-defined.
func (q *msgQueue) mergeLocked(in sysvObject) {
	q.reclaimGrantLocked()
	q.msgs = append(q.msgs, in.(*msgQueue).msgs...)
	q.drainWaitersLocked()
}

func encodeMessages(key int64, msgs []msgMessage) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(key))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(msgs)))
	for _, m := range msgs {
		out = binary.LittleEndian.AppendUint64(out, uint64(m.Type))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Data)))
		out = append(out, m.Data...)
	}
	return out
}

func decodeMessages(blob []byte) (key int64, msgs []msgMessage, err error) {
	if len(blob) < 12 {
		return 0, nil, fmt.Errorf("ipc: short queue blob")
	}
	key = int64(binary.LittleEndian.Uint64(blob))
	n := int(binary.LittleEndian.Uint32(blob[8:]))
	off := 12
	for i := 0; i < n; i++ {
		if off+12 > len(blob) {
			return 0, nil, fmt.Errorf("ipc: truncated queue blob")
		}
		mt := int64(binary.LittleEndian.Uint64(blob[off:]))
		dl := int(binary.LittleEndian.Uint32(blob[off+8:]))
		off += 12
		if off+dl > len(blob) {
			return 0, nil, fmt.Errorf("ipc: truncated message")
		}
		msgs = append(msgs, msgMessage{Type: mt, Data: append([]byte(nil), blob[off:off+dl]...)})
		off += dl
	}
	return key, msgs, nil
}

// --- semaphores ---

// semSet is the owner-side state of a System V semaphore set.
type semSet struct {
	sysvHeader

	vals []int
}

func newSemSet(id, key int64, nsems int) *semSet {
	return &semSet{sysvHeader: sysvHeader{sysvRef: sysvRef{NSSysVSem, id}, key: key}, vals: make([]int, nsems)}
}

// semop performs ops, parking deliver, tagged (from, cookie) for a cancel,
// if they cannot complete and wait is set. deliver runs exactly once.
func (s *semSet) semop(ops []api.SemBuf, wait bool, from string, cookie int64, deliver func(sysvResult)) {
	s.mu.Lock()
	if s.removed {
		s.mu.Unlock()
		deliver(sysvResult{errno: api.EIDRM})
		return
	}
	if s.movedTo != "" || s.migrating {
		s.mu.Unlock()
		deliver(sysvResult{errno: api.EXDEV})
		return
	}
	ok, errno := posix.SemApply(s.vals, ops)
	if errno != 0 {
		s.mu.Unlock()
		deliver(sysvResult{errno: errno})
		return
	}
	if ok {
		s.wakeWaitersLocked()
		s.mu.Unlock()
		deliver(sysvResult{})
		return
	}
	if !wait {
		s.mu.Unlock()
		deliver(sysvResult{errno: api.EAGAIN})
		return
	}
	s.waiters = append(s.waiters, &sysvWaiter{ops: ops, from: from, cookie: cookie, deliver: deliver})
	s.mu.Unlock()
}

// wakeWaitersLocked retries parked operations after a value change.
func (s *semSet) wakeWaitersLocked() {
	for {
		progressed := false
		for i, w := range s.waiters {
			ok, errno := posix.SemApply(s.vals, w.ops)
			if errno != 0 {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				w.deliver(sysvResult{errno: errno})
				progressed = true
				break
			}
			if ok {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				w.deliver(sysvResult{})
				progressed = true
				break
			}
		}
		if !progressed {
			return
		}
	}
}

// removeLocked fails parked waiters with EIDRM.
func (s *semSet) removeLocked() {
	s.failWaitersLocked(api.EIDRM)
}

// snapshotLocked encodes the values; parked waiters bounce. The set is
// left at zero.
func (s *semSet) snapshotLocked() []byte {
	s.failWaitersLocked(api.EXDEV)
	blob := encodeSemState(s.key, s.vals)
	clear(s.vals)
	return blob
}

// mergeLocked adds the incoming values to the set's own: permits the
// incoming copy carries become available here.
func (s *semSet) mergeLocked(in sysvObject) {
	for i, v := range in.(*semSet).vals {
		if i < len(s.vals) {
			s.vals[i] += v
		}
	}
	s.wakeWaitersLocked()
}

// encodeSemState encodes a semaphore set without taking its lock (for
// callers that already hold it).
func encodeSemState(key int64, vals []int) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(key))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(vals)))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(v)))
	}
	return out
}

func decodeSemSet(blob []byte) (key int64, vals []int, err error) {
	if len(blob) < 12 {
		return 0, nil, fmt.Errorf("ipc: short sem blob")
	}
	key = int64(binary.LittleEndian.Uint64(blob))
	n := int(binary.LittleEndian.Uint32(blob[8:]))
	off := 12
	if off+8*n > len(blob) {
		return 0, nil, fmt.Errorf("ipc: truncated sem blob")
	}
	for i := 0; i < n; i++ {
		vals = append(vals, int(int64(binary.LittleEndian.Uint64(blob[off:]))))
		off += 8
	}
	return key, vals, nil
}

// encodeSemOps / decodeSemOps serialize sembuf lists for MsgSemOp frames.
func encodeSemOps(ops []api.SemBuf) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(ops)))
	for _, op := range ops {
		out = binary.LittleEndian.AppendUint32(out, uint32(op.Num))
		out = binary.LittleEndian.AppendUint16(out, uint16(op.Op))
		out = binary.LittleEndian.AppendUint16(out, uint16(op.Flg))
	}
	return out
}

func decodeSemOps(blob []byte) ([]api.SemBuf, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("ipc: short semop blob")
	}
	n := int(binary.LittleEndian.Uint32(blob))
	if 4+8*n != len(blob) {
		return nil, fmt.Errorf("ipc: bad semop blob")
	}
	ops := make([]api.SemBuf, n)
	off := 4
	for i := range ops {
		ops[i].Num = int(binary.LittleEndian.Uint32(blob[off:]))
		ops[i].Op = int16(binary.LittleEndian.Uint16(blob[off+4:]))
		ops[i].Flg = int16(binary.LittleEndian.Uint16(blob[off+6:]))
		off += 8
	}
	return ops, nil
}
