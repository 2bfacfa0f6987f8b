package host

import (
	"testing"

	"graphene/internal/api"
)

// Unit tests for the kernel-bypass send ring: the SPSC descriptor ring's
// sequence protocol (including wraparound and full/empty edges) and the
// revoke+seal fence. The ipc-level tests exercise the grant/drain/fallback
// machinery; these pin the host primitive in isolation.

func TestRingPushPopFIFO(t *testing.T) {
	r := newRingSegment(1, 10, 11)
	buf := make([]byte, RingSlotData)
	// Three laps so the cursors wrap the slot array and the sequence words
	// advance through their second and third epochs.
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < RingSlots; i++ {
			if !r.TryPush(int64(i+1), []byte{byte(i), byte(lap)}) {
				t.Fatalf("lap %d: push %d failed on a non-full ring", lap, i)
			}
		}
		if r.TryPush(99, []byte("x")) {
			t.Fatal("push succeeded on a full ring")
		}
		if got := r.Pending(); got != RingSlots {
			t.Fatalf("Pending = %d, want %d", got, RingSlots)
		}
		for i := 0; i < RingSlots; i++ {
			mt, n, ok := r.TryPop(buf)
			if !ok || mt != int64(i+1) || n != 2 || buf[0] != byte(i) || buf[1] != byte(lap) {
				t.Fatalf("lap %d: pop %d = (%d, %d, %v) data=%v", lap, i, mt, n, ok, buf[:n])
			}
		}
		if _, _, ok := r.TryPop(buf); ok {
			t.Fatal("pop succeeded on an empty ring")
		}
	}
}

func TestRingOversizeRejected(t *testing.T) {
	r := newRingSegment(1, 10, 11)
	if r.TryPush(1, make([]byte, RingSlotData+1)) {
		t.Fatal("oversize payload accepted")
	}
	// The rejection must not corrupt the ring.
	if !r.TryPush(2, []byte("ok")) {
		t.Fatal("push after oversize rejection failed")
	}
	buf := make([]byte, RingSlotData)
	if mt, n, ok := r.TryPop(buf); !ok || mt != 2 || string(buf[:n]) != "ok" {
		t.Fatalf("pop after oversize rejection = (%d, %q, %v)", mt, buf[:n], ok)
	}
}

func TestRingRevokeSealReclaim(t *testing.T) {
	r := newRingSegment(1, 10, 11)
	if !r.TryPush(7, []byte("pending")) {
		t.Fatal("push failed")
	}
	r.Revoke()
	r.Seal()
	if !r.Revoked() {
		t.Fatal("Revoked() false after Revoke")
	}
	if r.TryPush(8, []byte("late")) {
		t.Fatal("push succeeded on a revoked ring")
	}
	// The owner's drain works on a revoked ring, so the
	// published-but-undelivered message is recoverable.
	buf := make([]byte, RingSlotData)
	mt, n, ok := r.TryPop(buf)
	if !ok || mt != 7 || string(buf[:n]) != "pending" {
		t.Fatalf("owner drain after seal = (%d, %q, %v)", mt, buf[:n], ok)
	}
	r.Revoke() // idempotent
}

func TestRingRevokeWakesDoorbell(t *testing.T) {
	r := newRingSegment(1, 10, 11)
	ch := make(chan struct{}, 1)
	r.Doorbell.Register(ch)
	defer r.Doorbell.Unregister(ch)
	r.Revoke()
	select {
	case <-ch:
	default:
		t.Fatal("Revoke did not ring the doorbell")
	}
}

func TestRingConcurrentProducerConsumer(t *testing.T) {
	r := newRingSegment(1, 10, 11)
	const total = 5000
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, RingSlotData)
		for i := 0; i < total; {
			mt, _, ok := r.TryPop(buf)
			if !ok {
				continue
			}
			if mt != int64(i) {
				done <- api.EINVAL
				return
			}
			i++
		}
		done <- nil
	}()
	msg := []byte("payload")
	for i := 0; i < total; {
		if r.TryPush(int64(i), msg) {
			i++
		}
	}
	if err := <-done; err != nil {
		t.Fatal("consumer observed out-of-order mtype")
	}
}

// TestRingDatapathAllocFree pins the acceptance criterion directly: the
// steady-state push/pop path performs zero heap allocations.
func TestRingDatapathAllocFree(t *testing.T) {
	r := newRingSegment(1, 10, 11)
	buf := make([]byte, RingSlotData)
	msg := []byte("0 allocs on the fast path")
	if n := testing.AllocsPerRun(200, func() {
		if !r.TryPush(1, msg) {
			t.Fatal("push failed")
		}
		if _, _, ok := r.TryPop(buf); !ok {
			t.Fatal("pop failed")
		}
	}); n != 0 {
		t.Fatalf("ring push+pop allocates %v times per op, want 0", n)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := newRingSegment(1, 10, 11)
	buf := make([]byte, RingSlotData)
	msg := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.TryPush(1, msg) {
			b.Fatal("push failed")
		}
		if _, _, ok := r.TryPop(buf); !ok {
			b.Fatal("pop failed")
		}
	}
}
