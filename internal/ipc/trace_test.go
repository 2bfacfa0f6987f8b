package ipc

import (
	"strings"
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/metrics"
)

// TestTraceTreeMsgget is the observability acceptance check: one msgget
// issued from a member picoprocess must render as a single trace tree —
// the member's client span over the leader's serve span — reassembled
// from the two separate flight recorders.
func TestTraceTreeMsgget(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, p1 := g.member(lp, lh.Addr, 2, newFakeService())

	if _, err := m1.Msgget(0x7700, api.IPCCreat); err != nil {
		t.Fatal(err)
	}

	// The member recorded a client span for the MsgKeyGet leader round trip.
	var call host.TraceEvent
	for _, ev := range p1.Proc().TraceRecorder().Events() {
		if ev.Kind == host.EvRPCCall && ev.Code == uint32(MsgKeyGet) {
			call = ev
		}
	}
	if call.Span == 0 {
		t.Fatalf("member recorded no MsgKeyGet client span; events: %+v",
			p1.Proc().TraceRecorder().Events())
	}
	if call.Trace == 0 || call.Parent == 0 {
		t.Fatalf("client span not rooted in a syscall trace: %+v", call)
	}
	if call.Dur <= 0 {
		t.Fatalf("client span has no round-trip latency: %+v", call)
	}

	// The leader recorded the matching serve span: same trace, parented
	// under the client hop's span.
	var serve host.TraceEvent
	for _, ev := range lp.Proc().TraceRecorder().Events() {
		if ev.Kind == host.EvRPCServe && ev.Code == uint32(MsgKeyGet) && ev.Trace == call.Trace {
			serve = ev
		}
	}
	if serve.Span == 0 {
		t.Fatalf("leader recorded no serve span for trace %d", call.Trace)
	}
	if serve.Parent != call.Span {
		t.Fatalf("serve span parent = %d, want the client span %d", serve.Parent, call.Span)
	}

	// And the rendered dump shows the serve hop nested under the call hop
	// in one tree.
	text := g.k.TraceTextString()
	callLine := strings.Index(text, "rpc-call MsgKeyGet")
	serveLine := strings.Index(text, "rpc-serve MsgKeyGet")
	if callLine < 0 || serveLine < 0 || serveLine < callLine {
		t.Fatalf("dump does not render the msgget trace tree:\n%s", text)
	}

	// The RPC latency histogram saw the round trip.
	if snap := metrics.Default.Histogram("rpc.MsgKeyGet").Snapshot(); snap.Count == 0 {
		t.Fatal("rpc.MsgKeyGet histogram recorded nothing")
	}
}

// TestPingSpanSampling pins the overhead design: MsgPing client spans are
// sampled 1-in-pingSampleStride, so a burst of pings records a handful of
// spans, not one per ping.
func TestPingSpanSampling(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, p1 := g.member(lp, lh.Addr, 2, newFakeService())

	const pings = pingSampleStride
	for i := 0; i < pings; i++ {
		if err := m1.Ping(lh.Addr); err != nil {
			t.Fatal(err)
		}
	}
	spans := 0
	for _, ev := range p1.Proc().TraceRecorder().Events() {
		if ev.Kind == host.EvRPCCall && ev.Code == uint32(MsgPing) {
			spans++
		}
	}
	// The sampling counter is package-global, so other activity may shift
	// the phase, but any stride-long burst crosses the sample point at
	// least once and at most twice.
	if spans < 1 || spans > pings/2 {
		t.Fatalf("recorded %d ping spans out of %d pings, want sampled (~1)",
			spans, pings)
	}
}

// TestTracingOffRecordsNothing pins the TraceOff fast path: no events, no
// histogram updates from the RPC layer.
func TestTracingOffRecordsNothing(t *testing.T) {
	prev := host.SetTraceLevel(host.TraceOff)
	defer host.SetTraceLevel(prev)

	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, p1 := g.member(lp, lh.Addr, 2, newFakeService())

	if _, err := m1.Msgget(0x7701, api.IPCCreat); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*host.FlightRecorder{p1.Proc().TraceRecorder(), lp.Proc().TraceRecorder()} {
		for _, ev := range p.Events() {
			if ev.Kind == host.EvRPCCall || ev.Kind == host.EvRPCServe {
				t.Fatalf("TraceOff still recorded RPC event %+v", ev)
			}
		}
	}
	_ = lh
}

func TestRegisterGauges(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	unreg := lh.RegisterGauges()
	defer unreg()

	snap := metrics.Default.Snapshot()
	found := 0
	for _, gz := range snap.Gauges {
		if gz.Name == "ipc.election_epoch.pid1" || gz.Name == "ipc.accepted_conns.pid1" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("gauges not registered: %+v", snap.Gauges)
	}
	unreg()
	snap = metrics.Default.Snapshot()
	for _, gz := range snap.Gauges {
		if gz.Name == "ipc.election_epoch.pid1" {
			t.Fatal("gauge survived unregister")
		}
	}
}
