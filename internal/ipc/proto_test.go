package ipc

import (
	"bytes"
	"testing"
	"testing/quick"

	"graphene/internal/api"
)

func TestFrameRoundTrip(t *testing.T) {
	in := Frame{
		Type: MsgQSend,
		Seq:  12345,
		From: "ipc.7",
		Err:  api.ENOMSG,
		A:    -1, B: 1 << 40, C: 0, D: 99,
		S:    "some string",
		Blob: []byte{0, 1, 2, 255},
	}
	in.isResponse = true
	out, err := DecodeFrame(bytes.NewReader(EncodeFrame(&in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Seq != in.Seq ||
		out.From != in.From ||
		out.Err != in.Err || out.A != in.A || out.B != in.B || out.C != in.C ||
		out.D != in.D || out.S != in.S || !bytes.Equal(out.Blob, in.Blob) ||
		out.IsResponse() != in.IsResponse() {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestFrameEmptyFields(t *testing.T) {
	in := Frame{Type: MsgPing}
	out, err := DecodeFrame(bytes.NewReader(EncodeFrame(&in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgPing || out.S != "" || out.Blob != nil || out.IsResponse() {
		t.Fatalf("empty frame mismatch: %+v", out)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// Truncated length prefix.
	if _, err := DecodeFrame(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("accepted truncated prefix")
	}
	// Absurd length.
	big := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeFrame(bytes.NewReader(big)); err == nil {
		t.Fatal("accepted oversized frame")
	}
	// Length smaller than the fixed header.
	small := []byte{10, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := DecodeFrame(bytes.NewReader(small)); err == nil {
		t.Fatal("accepted undersized frame")
	}
	// Valid length but body with a lying string length.
	f := Frame{Type: MsgPing, S: "hello"}
	enc := EncodeFrame(&f)
	enc[len(enc)-10] = 0xff // corrupt a length field
	if _, err := DecodeFrame(bytes.NewReader(enc)); err == nil {
		t.Fatal("accepted corrupted frame")
	}
}

// Property: encode/decode is the identity on frames.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(typ uint8, seq uint64, a, b, c, d int64, from, s string, blob []byte, isResp bool) bool {
		if typ == 0 {
			typ = 1
		}
		in := Frame{
			Type: MsgType(typ), Seq: seq, From: from,
			A: a, B: b, C: c, D: d, S: s, Blob: blob, isResponse: isResp,
		}
		if len(blob)+len(s)+len(from) > maxFrameSize/2 {
			return true // skip absurd sizes
		}
		out, err := DecodeFrame(bytes.NewReader(EncodeFrame(&in)))
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.Seq == in.Seq &&
			out.From == in.From &&
			out.A == in.A && out.B == in.B && out.C == in.C && out.D == in.D &&
			out.S == in.S && bytes.Equal(out.Blob, in.Blob) && out.IsResponse() == isResp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageSerializeRoundTrip(t *testing.T) {
	msgs := []msgMessage{
		{Type: 1, Data: []byte("first")},
		{Type: 99, Data: nil},
		{Type: 2, Data: bytes.Repeat([]byte{7}, 1000)},
	}
	blob := encodeMessages(42, msgs)
	key, out, err := decodeMessages(blob)
	if err != nil || key != 42 || len(out) != 3 {
		t.Fatalf("decode: key=%d n=%d err=%v", key, len(out), err)
	}
	for i := range msgs {
		if out[i].Type != msgs[i].Type || !bytes.Equal(out[i].Data, msgs[i].Data) {
			t.Fatalf("msg %d mismatch", i)
		}
	}
}

func TestSemOpsSerializeRoundTrip(t *testing.T) {
	ops := []api.SemBuf{{Num: 0, Op: -1, Flg: 0}, {Num: 3, Op: 2, Flg: int16(api.IPCNoWait)}}
	out, err := decodeSemOps(encodeSemOps(ops))
	if err != nil || len(out) != 2 {
		t.Fatalf("decode: %v, %v", out, err)
	}
	for i := range ops {
		if out[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, out[i], ops[i])
		}
	}
}

func TestSemSetSerializeRoundTrip(t *testing.T) {
	s := newSemSet(5, 77, 3)
	s.vals = []int{1, 0, 9}
	key, vals, err := decodeSemSet(s.snapshotLocked())
	if err != nil || key != 77 || len(vals) != 3 || vals[2] != 9 {
		t.Fatalf("decode: key=%d vals=%v err=%v", key, vals, err)
	}
}

// TestDecodedBlobOwnership pins Frame.Blob's ownership contract: the
// decoder copies payloads out of the transport buffer, so clobbering the
// wire bytes afterwards must not corrupt the decoded frame.
func TestDecodedBlobOwnership(t *testing.T) {
	in := Frame{Type: MsgQSend, Blob: []byte("payload-bytes"), S: "sss"}
	wire := EncodeFrame(&in)
	out, err := decodeFrameBody(wire[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xAA
	}
	if string(out.Blob) != "payload-bytes" || out.S != "sss" {
		t.Fatalf("decoded frame aliases transport buffer: blob=%q s=%q", out.Blob, out.S)
	}
	// And the encode side: the wire buffer must not alias the caller's blob.
	blob := []byte("caller-owned")
	wire2 := EncodeFrame(&Frame{Type: MsgQSend, Blob: blob})
	for i := range wire2 {
		wire2[i] = 0
	}
	if string(blob) != "caller-owned" {
		t.Fatal("EncodeFrame aliased the caller's blob")
	}
}

// TestSmallFrameRoundTripAllocs asserts the hot-path budget: encoding into
// a reused buffer and decoding with an interner costs at most one
// amortized allocation per small-frame round trip.
func TestSmallFrameRoundTripAllocs(t *testing.T) {
	f := Frame{Type: MsgSemOp, Seq: 7, From: "ipc.3", A: 1, C: 1}
	buf := make([]byte, 0, 256)
	var in interner
	// Warm the interner so the repeated From is memoized, as in readLoop.
	warm := AppendFrame(buf, &f)
	if _, err := decodeFrameBody(warm[4:], &in); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		wire := AppendFrame(buf, &f)
		out, err := decodeFrameBody(wire[4:], &in)
		if err != nil || out.Seq != f.Seq || out.From != f.From {
			t.Fatalf("round trip broke: %+v, %v", out, err)
		}
	})
	if avg > 1 {
		t.Fatalf("encode+decode = %.1f allocs/op, want <= 1", avg)
	}
}
