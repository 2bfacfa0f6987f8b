package ipc

import (
	"bytes"
	"testing"

	"graphene/internal/api"
)

// fuzzFrameEqual compares every wire-visible field of two frames. Blob is
// compared by content (the decoder leaves an empty blob nil).
func fuzzFrameEqual(a, b *Frame) bool {
	return a.Type == b.Type && a.isResponse == b.isResponse &&
		a.Seq == b.Seq &&
		a.Trace == b.Trace && a.Span == b.Span &&
		a.Err == b.Err &&
		a.A == b.A && a.B == b.B && a.C == b.C && a.D == b.D &&
		a.From == b.From && a.S == b.S && bytes.Equal(a.Blob, b.Blob)
}

// FuzzFrameCodec round-trips arbitrary frames through AppendFrame and
// decodeFrameBody: every field — the trace context included — must survive,
// and the re-encoding must be byte-identical (the codec is a fixed point on
// its own output).
func FuzzFrameCodec(f *testing.F) {
	f.Add(byte(MsgPing), false, uint64(1), uint64(0), uint64(0), uint32(0),
		int64(0), int64(0), int64(0), int64(0), "", "", []byte(nil))
	f.Add(byte(MsgKeyGet), false, uint64(7), uint64(0xCAFE), uint64(0xBEEF), uint32(0),
		int64(NSSysVMsg), int64(0x5157), int64(api.IPCCreat), int64(99), "grp-1:2", "", []byte(nil))
	f.Add(byte(MsgQSend), false, uint64(1<<40), uint64(1), uint64(2), uint32(uint32(api.EIDRM)),
		int64(12), int64(1), int64(1), int64(0), "grp-9:44", "payload-owner", []byte("queue payload"))
	f.Add(byte(MsgRecoverState), true, ^uint64(0), ^uint64(0), ^uint64(0), ^uint32(0),
		int64(-1), int64(-1), int64(-1), int64(-1), "from\x00addr", "s\xffstring", bytes.Repeat([]byte{0xAB}, 300))
	f.Fuzz(func(t *testing.T, typ byte, resp bool, seq, trace, span uint64, errno uint32,
		a, b, c, d int64, from, s string, blob []byte) {
		in := Frame{
			Type: MsgType(typ), isResponse: resp,
			Seq:   seq,
			Trace: trace, Span: span,
			Err: api.Errno(errno),
			A:   a, B: b, C: c, D: d,
			From: from, S: s, Blob: blob,
		}
		wire := AppendFrame(nil, &in)
		if len(wire) != 4+frameBodySize(&in) {
			t.Fatalf("encoded %d bytes, frameBodySize promised %d", len(wire)-4, frameBodySize(&in))
		}
		got, err := decodeFrameBody(wire[4:], nil)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !fuzzFrameEqual(&in, &got) {
			t.Fatalf("round trip changed the frame:\n in:  %+v\n out: %+v", in, got)
		}
		if again := AppendFrame(nil, &got); !bytes.Equal(again, wire) {
			t.Fatalf("re-encoding is not byte-identical:\n first:  %x\n second: %x", wire, again)
		}
	})
}

// FuzzFrameDecode throws raw bytes at decodeFrameBody: it must never panic,
// and anything it accepts must re-encode to a canonical form the decoder
// accepts again (decode∘encode is a fixed point past the first iteration).
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range []Frame{
		{Type: MsgPing, Seq: 1},
		{Type: MsgKeyGet, Seq: 2, Trace: 5, Span: 6,
			A: 1, B: 2, C: 3, D: 4, From: "grp-1:1", S: "x", Blob: []byte("b")},
		{Type: MsgNewLeader, isResponse: true, Err: api.EPERM, S: "grp-2:7"},
	} {
		fr := fr
		f.Add(EncodeFrame(&fr)[4:])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, minFrameBody))
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrameBody(body, nil)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		wire := AppendFrame(nil, &fr)
		fr2, err := decodeFrameBody(wire[4:], nil)
		if err != nil {
			t.Fatalf("decoder rejects its own canonical re-encoding: %v", err)
		}
		if !fuzzFrameEqual(&fr, &fr2) {
			t.Fatalf("canonical re-encoding decoded differently:\n first:  %+v\n second: %+v", fr, fr2)
		}
	})
}
