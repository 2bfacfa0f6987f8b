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
// owner stores the messages; remote senders and receivers go through RPC
// to the owner (§4.2).
type msgQueue struct {
	sysvHeader

	msgs []msgMessage

	// Kernel-bypass datapath (ring.go). sendRing carries client→owner
	// messages; recvRing (granted only while the backlog is empty and no
	// waiters are parked) carries owner→client deliveries for mtype==0
	// receivers. Both rings are strictly an optimization:
	// reclaimGrantLocked folds them back into q.msgs at any disruption
	// (migration, removal, detach, shutdown, competing consumer).
	sendRing *host.RingSegment
	recvRing *host.RingSegment
	ringBuf  []byte // drain scratch, one slot's worth
}

func newMsgQueue(id, key int64) *msgQueue {
	return &msgQueue{sysvHeader: sysvHeader{sysvRef: sysvRef{NSSysVMsg, id}, key: key}}
}

// send appends a message and satisfies a compatible waiter. Ring-attached
// client pushes already in flight are ingested first so FIFO order holds,
// and when a receive ring is granted the new message is routed straight
// into it.
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
	if !q.forwardToRecvRingLocked(mtype, data) { // TryPush copies into the arena
		q.msgs = append(q.msgs, msgMessage{Type: mtype, Data: append([]byte(nil), data...)})
	}
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
// the owner's order: straight into the receive ring while one is attached
// and eligible, otherwise into q.msgs. Popping under q.mu is what keeps a
// racing migration from losing messages — the handoff's snapshot runs
// under the same lock. Caller holds q.mu.
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
		data := append([]byte(nil), buf[:n]...)
		if !q.forwardToRecvRingLocked(mt, data) {
			q.msgs = append(q.msgs, msgMessage{Type: mt, Data: data})
		}
	}
}

// forwardToRecvRingLocked routes one arriving message into the receive
// ring. False means the message must take the classic q.msgs path; any
// condition that would let the ring overtake queued backlog or parked
// waiters reclaims the ring first, so the client can never observe
// reordering. Caller holds q.mu.
func (q *msgQueue) forwardToRecvRingLocked(mtype int64, data []byte) bool {
	rr := q.recvRing
	if rr == nil {
		return false
	}
	if len(q.waiters) > 0 || len(q.msgs) > 0 {
		q.reclaimRecvRingLocked()
		return false
	}
	if rr.Revoked() || !rr.TryPush(mtype, data) {
		q.reclaimRecvRingLocked()
		return false
	}
	return true
}

// reclaimRecvRingLocked revokes the receive ring and pulls every
// undelivered message back to the FRONT of q.msgs: ring contents were
// ordered before anything still queued. SealConsumer guarantees no client
// pop is in flight, so nothing is lost or duplicated. Caller holds q.mu.
func (q *msgQueue) reclaimRecvRingLocked() {
	rr := q.recvRing
	if rr == nil {
		return
	}
	rr.Revoke()
	rr.SealConsumer()
	buf := q.ringBufLocked()
	var tail []msgMessage
	for {
		mt, n, ok := rr.TryPop(buf)
		if !ok {
			break
		}
		tail = append(tail, msgMessage{Type: mt, Data: append([]byte(nil), buf[:n]...)})
	}
	if len(tail) > 0 {
		q.msgs = append(tail, q.msgs...)
	}
	q.recvRing = nil
}

// reclaimGrantLocked collapses both rings back into q.msgs and revokes
// them — the full detach used by migration, removal, explicit detach, and
// shutdown. After it returns the queue is ring-free and q.msgs is the
// complete FIFO state. Caller holds q.mu.
func (q *msgQueue) reclaimGrantLocked() {
	q.reclaimRecvRingLocked()
	if sr := q.sendRing; sr != nil {
		sr.Revoke()
		sr.Seal()
		q.ingestRingLocked() // recvRing is nil now; drains into q.msgs
		q.sendRing = nil
	}
	q.drainWaitersLocked()
}

func (q *msgQueue) grantIDLocked() int {
	if q.sendRing == nil {
		return 0
	}
	return q.sendRing.ID
}

// grantLocked grants a send ring, plus a receive ring when the queue is
// empty and waiter-free, so ring deliveries can never overtake queued
// backlog. One bypass client at a time.
func (q *msgQueue) grantLocked(p *pal.PAL, pid int) (ringGrant, api.Errno) {
	if q.sendRing != nil {
		return ringGrant{}, api.EAGAIN
	}
	sr, err := p.RingCreateMsg(pid)
	if err != nil {
		return ringGrant{}, api.EAGAIN
	}
	q.sendRing = sr
	g := ringGrant{seg: sr.ID, bell: sr.Doorbell}
	if len(q.msgs) == 0 && len(q.waiters) == 0 {
		if rr, err := p.RingCreateMsg(pid); err == nil {
			q.recvRing, g.recv = rr, rr.ID
		}
	}
	return g, 0
}

// serveGrantLocked ingests the client's pushes, waking parked waiters.
func (q *msgQueue) serveGrantLocked(id int) bool {
	if q.grantIDLocked() != id {
		return false
	}
	if q.sendRing.Revoked() {
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
	// Any receive through the classic path breaks the receive ring's
	// sole-consumer discipline: reclaim it (FIFO-preserving) before
	// matching, after ingesting pending ring sends.
	q.ingestRingLocked()
	q.reclaimRecvRingLocked()
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

// removeLocked collapses the bypass rings first: ring-side messages still
// satisfy parked waiters (they linearize before the removal), then the
// rest fail with EIDRM. The client observes the revocation and re-routes
// to RPC, where it learns the queue is gone.
func (q *msgQueue) removeLocked() {
	q.reclaimGrantLocked()
	q.failWaitersLocked(api.EIDRM)
	q.msgs = nil
}

// snapshotLocked encodes the messages once the rings collapse, so the
// blob is the complete FIFO state.
func (q *msgQueue) snapshotLocked() []byte {
	q.reclaimGrantLocked()
	q.failWaitersLocked(api.EXDEV)
	blob := encodeMessages(q.key, q.msgs)
	q.msgs = nil
	return blob
}

// mergeLocked appends the incoming messages after the queue's own; the
// rings collapse first so the merged order is well-defined.
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

	// seg is the kernel-bypass shared value (ring.go), granted only for
	// single-semaphore sets. While attached it is the authoritative value
	// of semaphore 0: owner-side ops route through it too, and
	// reclaimGrantLocked seals the final value back into vals[0].
	seg *host.SemSeg
}

func newSemSet(id, key int64, nsems int) *semSet {
	return &semSet{sysvHeader: sysvHeader{sysvRef: sysvRef{NSSysVSem, id}, key: key}, vals: make([]int, nsems)}
}

// applyLocked attempts the op list atomically; returns false if blocked.
// While a bypass segment is attached it holds the authoritative value, so
// owner-side ops go through the same CAS protocol the client uses; a
// revoked segment is folded back inline (without waking waiters — callers
// iterating s.waiters do that themselves).
func (s *semSet) applyLocked(ops []api.SemBuf) (bool, api.Errno) {
	if seg := s.seg; seg != nil {
		applied, _, errno := seg.TryApply(ops)
		switch {
		case errno == api.EAGAIN:
			// Revoked underneath us: capture the sealed value and fall
			// through to the classic path below.
			if v, ok := seg.Seal(); ok {
				s.vals[0] = int(v)
			}
			s.seg = nil
		case errno != 0:
			return false, errno
		default:
			return applied, 0
		}
	}
	return posix.SemApply(s.vals, ops)
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
	ok, errno := s.applyLocked(ops)
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

// reclaimGrantLocked revokes the bypass segment, seals its final value
// back into vals[0], and retries parked waiters against it. Idempotent;
// caller holds s.mu. (Not called from within applyLocked — the
// waiter-iteration loops there fold the segment back inline instead, to
// avoid re-entrant mutation of s.waiters.)
func (s *semSet) reclaimGrantLocked() {
	seg := s.seg
	if seg == nil {
		return
	}
	seg.Revoke()
	if v, ok := seg.Seal(); ok {
		s.vals[0] = int(v)
	}
	s.seg = nil
	s.wakeWaitersLocked()
}

func (s *semSet) grantIDLocked() int {
	if s.seg == nil {
		return 0
	}
	return s.seg.ID
}

// grantLocked grants a one-semaphore value segment, to one bypass client
// at a time; a multi-semaphore set is RPC-only for good (EINVAL).
func (s *semSet) grantLocked(p *pal.PAL, pid int) (ringGrant, api.Errno) {
	if len(s.vals) != 1 {
		return ringGrant{}, api.EINVAL
	}
	if s.seg != nil {
		return ringGrant{}, api.EAGAIN
	}
	seg, err := p.RingCreateSem(pid, int64(s.vals[0]))
	if err != nil {
		return ringGrant{}, api.EAGAIN
	}
	s.seg = seg
	return ringGrant{seg: seg.ID, bell: seg.Doorbell}, 0
}

// serveGrantLocked re-evaluates parked waiters against the shared value
// after a client post.
func (s *semSet) serveGrantLocked(id int) bool {
	if s.grantIDLocked() != id {
		return false
	}
	if s.seg.Revoked() {
		s.reclaimGrantLocked()
		return false
	}
	s.wakeWaitersLocked()
	return true
}

// wakeWaitersLocked retries parked operations after a value change.
func (s *semSet) wakeWaitersLocked() {
	for {
		progressed := false
		for i, w := range s.waiters {
			ok, errno := s.applyLocked(w.ops)
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

// removeLocked revokes the bypass segment so the client's CAS fast path
// fails and re-routes to RPC, where it observes EIDRM. Seal (not reclaim):
// the values are being destroyed, waking waiters against them first would
// just race the removal.
func (s *semSet) removeLocked() {
	if seg := s.seg; seg != nil {
		seg.Revoke()
		seg.Seal()
		s.seg = nil
	}
	s.failWaitersLocked(api.EIDRM)
}

// snapshotLocked encodes the values once the segment is reclaimed, so vals
// reflects every client CAS; waiters the sealed value satisfies complete
// here, the rest bounce. The set is left at zero.
func (s *semSet) snapshotLocked() []byte {
	s.reclaimGrantLocked()
	s.failWaitersLocked(api.EXDEV)
	blob := encodeSemState(s.key, s.vals)
	clear(s.vals)
	return blob
}

// mergeLocked adds the incoming values to the set's own: permits the
// incoming copy carries become available here. A bypass segment holds the
// authoritative value of sem 0, so it is sealed back first.
func (s *semSet) mergeLocked(in sysvObject) {
	s.reclaimGrantLocked()
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
