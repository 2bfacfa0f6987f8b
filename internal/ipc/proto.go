// Package ipc implements Graphene's guest coordination framework (§4):
// the per-picoprocess IPC helper thread, the RPC protocol over host byte
// streams, leader-based namespace management with batched allocation, and
// the distributed System V IPC implementation (message queues with ring
// or acknowledged remote send and consumer migration; semaphores with
// owner migration).
package ipc

import (
	"encoding/binary"
	"fmt"
	"io"

	"graphene/internal/api"
)

// MsgType discriminates RPC frames.
type MsgType uint8

// RPC message types exchanged between IPC helpers.
const (
	// MsgPing / MsgPong: no-op round trip (Figure 5's microbenchmark).
	MsgPing MsgType = iota + 1
	MsgPong

	// MsgNSAlloc: request a batch of IDs from the leader.
	// A=namespace kind, B=batch size. Resp: A=lo, B=hi.
	MsgNSAlloc
	// MsgNSQuery: find the owner of an ID. A=kind, B=id.
	// Resp: S=owner helper address.
	MsgNSQuery
	// MsgNSRegister: record id->address at the leader's range owner.
	// A=kind, B=id, S=address.
	MsgNSRegister

	// MsgSignal: deliver a signal. A=target guest PID, B=signal number.
	MsgSignal
	// MsgProcMeta: read a /proc/[pid] field. A=guest PID, S=field.
	// Resp: S=value.
	MsgProcMeta

	// MsgKeyGet: map a System V key to an ID at the leader,
	// creating the mapping there when asked. A=kind, B=key,
	// C=flags(IPCCreat|IPCExcl), D=proposed ID. Resp: A=id, S=owner
	// address.
	MsgKeyGet
	// MsgKeyOwner: look up the owner of a System V ID at the leader.
	// A=kind, B=id. Resp: S=owner address.
	MsgKeyOwner
	// MsgKeyChown: update ownership at the leader after a migration.
	// A=kind, B=id, S=new owner address.
	MsgKeyChown
	// MsgKeyRemove: drop an ID at the leader. A=kind, B=id, D=the
	// remover's migration epoch (0 for a survivor dropping a dead owner's).
	MsgKeyRemove

	// MsgQSend: append to a remote queue. A=qid, B=mtype, Blob=payload.
	// Answered once the queue holds the message; EXDEV from a copy that
	// moved, is moving or was persisted, EIDRM from a removed queue.
	MsgQSend
	// MsgQRecv: receive from a remote queue. A=qid, B=mtype, C=flags.
	// Resp: B=mtype, Blob=payload. Deferred until a message is available
	// unless IPCNoWait.
	MsgQRecv
	// MsgQDelete: destroy a queue at its owner. A=qid.
	MsgQDelete
	// MsgQDeleted: deletion notification to prior accessors. A=qid.
	MsgQDeleted
	// MsgQMigrate: transfer queue ownership. A=qid, Blob=serialized queue.
	MsgQMigrate

	// MsgSemOp: perform sembuf ops at the owner. A=semid, Blob=ops.
	// Deferred until satisfiable unless IPCNoWait.
	MsgSemOp
	// MsgSemDelete: destroy a semaphore set at its owner. A=semid.
	MsgSemDelete
	// MsgSemMigrate: transfer semaphore ownership. A=semid, Blob=state.
	MsgSemMigrate

	// MsgWhoIsLeader: broadcast query; the leader responds point-to-point.
	MsgWhoIsLeader

	// MsgPgJoin: join a process group at the leader. A=pgid, B=pid,
	// S=member helper address.
	MsgPgJoin
	// MsgPgLeave: drop a member. A=pgid, B=pid.
	MsgPgLeave
	// MsgPgMembers: list a group's members. A=pgid.
	// Resp: Blob=encoded (pid, addr) pairs.
	MsgPgMembers

	// A retired number: the checked-in fuzz corpora encode the numbers
	// of the types after it.
	_
	// MsgNewLeader: broadcast claim to a leader epoch; the first claim of
	// an epoch in the broadcast order leads. A=epoch, S=claimant address.
	MsgNewLeader
	// MsgRecoverState: a newly elected leader asks a member for its state
	// report. Resp: Blob=recoverPayload, A=epoch and S=address of the
	// leader the member has accepted.
	MsgRecoverState

	// MsgBye: graceful-departure marker, sent synchronously to the leader
	// at the start of Shutdown. A member that said goodbye is never
	// reaped; a member whose streams die without it is treated as crashed.
	MsgBye

	// MsgNSClaim: reserve an ID this helper already holds (an adopted,
	// restored, or externally assigned process PID) in the leader's
	// allocator, so fresh grants and the leader's own batch never mint it
	// again. A=kind, B=id. Resp: B=the leader's allocation cursor, which
	// the claimant records as if it had heard it in a MsgNSHwm.
	MsgNSClaim

	// MsgNSHwm: broadcast namespace high-water mark. The leader announces
	// its allocation cursor after every batch grant or claim (A=kind,
	// B=next unallocated ID); every helper remembers the highest value
	// heard and reports it in MsgRecoverState. This is what lets a NEW
	// leader's cursor clear IDs minted by a helper that cannot report —
	// above all the old leader's own batch, whose grant otherwise lives
	// only in the leaderState that died with it.
	MsgNSHwm

	// MsgQRecvCancel: withdraw a parked blocking receive at the owner
	// (guest signal interruption). A=qid, D=cancel cookie; the waiter is
	// matched by (sender address, cookie) and its parked MsgQRecv call is
	// answered with EINTR if it has not already been satisfied.
	// Asynchronous: the canceller keeps waiting on the original call, so a
	// message delivery that races the cancel is never lost.
	MsgQRecvCancel
	// MsgSemOpCancel: withdraw a parked blocking semop. A=semid,
	// D=cancel cookie. Same matching and race rules as MsgQRecvCancel.
	MsgSemOpCancel

	// MsgRingAttach: request a kernel-bypass send ring for a message queue
	// the receiver owns. A=queue id, C=requester's host PID. Resp: A=host
	// segment ID of the send ring. EINVAL for anything that is not a live
	// message queue held there, EAGAIN or EXDEV when the owner declines
	// (shutting down, migrating, already granted); the client keeps using
	// RPC and may retry later.
	MsgRingAttach
	// MsgRingDetach: segment-fenced detach request. A=queue id, D=ring
	// segment ID. Sent by a client tearing down; the owner revokes and
	// drains the ring if it is still the queue's.
	MsgRingDetach
)

// msgTypeNames indexes MsgType (1-based) for String.
var msgTypeNames = [...]string{
	MsgPing: "MsgPing", MsgPong: "MsgPong",
	MsgNSAlloc: "MsgNSAlloc", MsgNSQuery: "MsgNSQuery", MsgNSRegister: "MsgNSRegister",
	MsgSignal: "MsgSignal", MsgProcMeta: "MsgProcMeta",
	MsgKeyGet: "MsgKeyGet", MsgKeyOwner: "MsgKeyOwner", MsgKeyChown: "MsgKeyChown",
	MsgKeyRemove: "MsgKeyRemove",
	MsgQSend:     "MsgQSend", MsgQRecv: "MsgQRecv", MsgQDelete: "MsgQDelete",
	MsgQDeleted: "MsgQDeleted", MsgQMigrate: "MsgQMigrate",
	MsgSemOp: "MsgSemOp", MsgSemDelete: "MsgSemDelete", MsgSemMigrate: "MsgSemMigrate",
	MsgWhoIsLeader: "MsgWhoIsLeader",
	MsgPgJoin:      "MsgPgJoin", MsgPgLeave: "MsgPgLeave", MsgPgMembers: "MsgPgMembers",
	MsgNewLeader: "MsgNewLeader", MsgRecoverState: "MsgRecoverState",
	MsgBye: "MsgBye", MsgNSClaim: "MsgNSClaim", MsgNSHwm: "MsgNSHwm",
	MsgQRecvCancel: "MsgQRecvCancel", MsgSemOpCancel: "MsgSemOpCancel",
	MsgRingAttach: "MsgRingAttach", MsgRingDetach: "MsgRingDetach",
}

// String names the message type (fault-injection points are addressed by
// these names, e.g. "rpc.MsgKeyGet.reply").
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return "MsgType(" + fmt.Sprint(int(t)) + ")"
}

// Namespace kinds for MsgNSAlloc/MsgNSQuery and key mappings.
const (
	NSPid = iota + 1
	NSSysVMsg
	NSSysVSem
)

// Frame flags.
const (
	flagResponse = 1 << 0
	flagError    = 1 << 1
)

// Frame is one RPC message. The fixed scalar fields A-D plus a string and
// a blob cover every message type without per-type codecs.
type Frame struct {
	Type MsgType
	Seq  uint64
	// From is the sender's helper address (for reply routing/caching).
	From string

	// Trace and Span carry the flight-recorder trace context across
	// picoprocesses: Trace identifies the whole operation (minted once at
	// the originating syscall), Span the sending hop. A dispatcher records
	// the request's Span as its parent and mints a fresh Span for the work
	// it does downstream, so one guest syscall's RPC fan-out — caller →
	// helper → leader → reply, including failover hops — reassembles into a
	// single tree. 0 means untraced.
	Trace uint64
	Span  uint64

	Err        api.Errno
	A, B, C, D int64
	S          string
	// Blob is the frame's variable-length payload. Ownership contract:
	// the decoder copies the payload out of the transport buffer, so a
	// decoded Frame owns its Blob and may retain it indefinitely. On
	// encode, AppendFrame/EncodeFrame copy Blob into the wire buffer and
	// never alias it, so callers keep ownership of what they pass in.
	Blob []byte

	isResponse bool
}

// Response constructs a success response to f carrying the given payload.
func (f *Frame) Response(payload Frame) Frame {
	payload.Type = f.Type
	payload.Seq = f.Seq
	payload.isResponse = true
	return payload
}

// ErrResponse constructs an error response to f.
func (f *Frame) ErrResponse(e api.Errno) Frame {
	return Frame{Type: f.Type, Seq: f.Seq, Err: e, isResponse: true}
}

// IsResponse reports whether the frame answers an earlier request.
func (f *Frame) IsResponse() bool { return f.isResponse }

// maxFrameSize bounds a frame on the wire (1 MiB: ample for checkpoints
// travel out-of-band via bulk IPC, not RPC frames).
const maxFrameSize = 1 << 20

// minFrameBody is the fixed part of a frame body: 2 header + 8 seq +
// 8 trace + 8 span + 4 errno + 32 scalars + 3×4 length fields.
const minFrameBody = 74

// frameBodySize returns the encoded body length of f (without the 4-byte
// length prefix).
func frameBodySize(f *Frame) int {
	return minFrameBody + len(f.From) + len(f.S) + len(f.Blob)
}

// AppendFrame appends f's length-prefixed wire encoding to dst and returns
// the extended slice. With a pre-sized (typically pooled) dst the encode
// performs no allocation; this is the hot-path entry the Conn writer uses.
func AppendFrame(dst []byte, f *Frame) []byte {
	flags := byte(0)
	if f.isResponse {
		flags |= flagResponse
	}
	if f.Err != 0 {
		flags |= flagError
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameBodySize(f)))
	dst = append(dst, byte(f.Type), flags)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, f.Trace)
	dst = binary.LittleEndian.AppendUint64(dst, f.Span)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Err))
	for _, v := range [4]int64{f.A, f.B, f.C, f.D} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.From)))
	dst = append(dst, f.From...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.S)))
	dst = append(dst, f.S...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Blob)))
	dst = append(dst, f.Blob...)
	return dst
}

// EncodeFrame serializes f with a length prefix into a fresh buffer (the
// broadcast paths, which hand the buffer to the host, use this; the RPC
// hot path uses AppendFrame with a pooled buffer instead).
func EncodeFrame(f *Frame) []byte {
	return AppendFrame(make([]byte, 0, 4+frameBodySize(f)), f)
}

// DecodeFrame reads one frame from r. The RPC hot path does not go through
// this (it decodes in place from a buffered reader, see frameReader); the
// broadcast paths and tests do.
func DecodeFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < minFrameBody || n > maxFrameSize {
		return Frame{}, fmt.Errorf("ipc: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	return decodeFrameBody(body, nil)
}

// interner memoizes the last string decoded through it, so a field that
// repeats frame after frame (a peer's From address) is materialized once
// instead of allocating on every decode. A nil interner just copies.
type interner struct {
	str string
}

func (in *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	// string(b) == in.str compiles to an allocation-free comparison.
	if in != nil && string(b) == in.str {
		return in.str
	}
	s := string(b)
	if in != nil {
		in.str = s
	}
	return s
}

// decodeFrameBody parses one frame body (everything after the length
// prefix). body may be a transport buffer that is overwritten or recycled
// after the call returns: every variable-length field — strings and Blob —
// is copied out, per Frame.Blob's ownership contract. from, when non-nil,
// interns the From field across calls.
func decodeFrameBody(body []byte, from *interner) (Frame, error) {
	if len(body) < minFrameBody {
		return Frame{}, fmt.Errorf("ipc: truncated frame")
	}
	var f Frame
	f.Type = MsgType(body[0])
	flags := body[1]
	f.isResponse = flags&flagResponse != 0
	off := 2
	f.Seq = binary.LittleEndian.Uint64(body[off:])
	off += 8
	f.Trace = binary.LittleEndian.Uint64(body[off:])
	off += 8
	f.Span = binary.LittleEndian.Uint64(body[off:])
	off += 8
	f.Err = api.Errno(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	f.A = int64(binary.LittleEndian.Uint64(body[off:]))
	f.B = int64(binary.LittleEndian.Uint64(body[off+8:]))
	f.C = int64(binary.LittleEndian.Uint64(body[off+16:]))
	f.D = int64(binary.LittleEndian.Uint64(body[off+24:]))
	off += 32
	fromB, off, err := decodeBytes(body, off)
	if err != nil {
		return Frame{}, err
	}
	f.From = from.intern(fromB)
	sB, off, err := decodeBytes(body, off)
	if err != nil {
		return Frame{}, err
	}
	f.S = string(sB)
	if off+4 > len(body) {
		return Frame{}, fmt.Errorf("ipc: truncated frame")
	}
	blobLen := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if off+blobLen != len(body) {
		return Frame{}, fmt.Errorf("ipc: frame length mismatch")
	}
	if blobLen > 0 {
		f.Blob = append([]byte(nil), body[off:off+blobLen]...)
	}
	return f, nil
}

func decodeBytes(body []byte, off int) ([]byte, int, error) {
	if off+4 > len(body) {
		return nil, 0, fmt.Errorf("ipc: truncated frame")
	}
	n := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if off+n > len(body) {
		return nil, 0, fmt.Errorf("ipc: truncated string")
	}
	return body[off : off+n], off + n, nil
}
