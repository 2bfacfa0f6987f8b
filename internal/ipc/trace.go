package ipc

import (
	"sync/atomic"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/metrics"
)

// RPC tracing: client and server spans for the flight recorder, plus
// per-MsgType latency histograms in the metrics registry.
//
// Span model: the guest syscall that starts an operation mints a trace ID
// and a root span (traceRoot). Every RPC hop stamps the outgoing frame
// with a fresh span whose parent is the enclosing span (beginSpan), and
// the receiving dispatcher records a serve span under the hop's span
// (dispatch). Because frames carry the context, the hops of one msgget
// — caller → leader, plus any election rides — reassemble into a
// single tree across picoprocess rings (host.buildTraceTrees).
//
// Overhead budget: MsgPing is the Fig. 5 hot path (~2µs per round trip on
// the reference machine); an always-on span costs two clock reads, two
// ring writes, and a histogram update (~300ns, ~15%), so ping spans are
// sampled 1-in-32 — ~10ns amortized, plus ~15ns of per-ping gating —
// keeping the tracing tax well under the 5% regression budget
// (TestTraceOverheadBudget) while still surfacing ping latency shape.
// Coordination RPCs are orders of magnitude rarer and always traced.

func init() {
	host.RPCTypeName = func(code uint32) string { return MsgType(code).String() }
}

// spanSeq mints process-wide unique trace and span IDs (the whole
// simulated host shares one address space, so one counter suffices).
var spanSeq atomic.Uint64

func newSpanID() uint64 { return spanSeq.Add(1) }

// pingSeq drives the 1-in-32 sampling of MsgPing client spans.
var pingSeq atomic.Uint64

const pingSampleStride = 32

// sampled reports whether this RPC should carry a span. Everything but
// MsgPing always does.
func sampled(t MsgType) bool {
	if t != MsgPing {
		return true
	}
	return pingSeq.Add(1)%pingSampleStride == 1
}

// rpcHistNames pre-renders "rpc.<MsgType>" so the hot path's histogram
// lookup never concatenates.
var rpcHistNames [len(msgTypeNames)]string

func init() {
	for i := 1; i < len(msgTypeNames); i++ {
		rpcHistNames[i] = "rpc." + msgTypeNames[i]
	}
}

func rpcHist(t MsgType) *metrics.Histogram {
	if int(t) < len(rpcHistNames) && rpcHistNames[t] != "" {
		return metrics.Default.Histogram(rpcHistNames[t])
	}
	return metrics.Default.Histogram("rpc.other")
}

// traceRoot mints a trace ID and root span for a guest-syscall-level
// operation (0, 0 when tracing is off). Frames stamped with the root as
// their Span before beginSpan make sibling hops of one operation share a
// parent.
func traceRoot() (trace, root uint64) {
	if !host.TraceEnabled() {
		return 0, 0
	}
	return newSpanID(), newSpanID()
}

// beginSpan prepares f for one client RPC hop: mints the trace (if the
// operation has none yet) and replaces f.Span with this hop's fresh span,
// remembering the enclosing span as the hop's parent. Returns the start
// timestamp, 0 when this hop records nothing (tracing off, or an
// unsampled ping).
func (h *Helper) beginSpan(f *Frame) (start int64, parent uint64) {
	if !host.TraceEnabled() || !sampled(f.Type) {
		return 0, 0
	}
	if f.Trace == 0 {
		f.Trace = newSpanID()
	}
	parent = f.Span
	f.Span = newSpanID()
	return host.TraceNow(), parent
}

// endSpan records the completed client hop begun by beginSpan and feeds
// the round trip into the per-type RPC latency histogram.
func (h *Helper) endSpan(f *Frame, start int64, parent uint64, err error) {
	if start == 0 {
		return
	}
	dur := host.TraceNow() - start
	h.pal.Proc().TraceRecord(host.TraceEvent{
		TS: start, Kind: host.EvRPCCall, Code: uint32(f.Type),
		Errno: int32(api.ToErrno(err)), Dur: dur,
		Trace: f.Trace, Span: f.Span, Parent: parent,
	})
	rpcHist(f.Type).Observe(dur)
}

// serveSpan records the server side of a traced request in dispatch and
// re-points f.Span at the dispatch's own span, so any event the handler
// records downstream nests under this hop.
func (h *Helper) serveSpan(f *Frame) {
	if f.Trace == 0 || !host.TraceEnabled() {
		return
	}
	parent := f.Span
	f.Span = newSpanID()
	h.pal.Proc().TraceRecord(host.TraceEvent{
		TS: host.TraceNow(), Kind: host.EvRPCServe, Code: uint32(f.Type),
		Trace: f.Trace, Span: f.Span, Parent: parent,
	})
}

// traceElection records a failover hop riding inside the operation that
// observed the dead leader (trace ties the election to that operation).
func (h *Helper) traceElection(trace, parent uint64, epoch int64) {
	if !host.TraceEnabled() {
		return
	}
	h.pal.Proc().TraceRecord(host.TraceEvent{
		TS: host.TraceNow(), Kind: host.EvElection, Arg: uint64(epoch),
		Trace: trace, Parent: parent,
	})
}

// AcceptedConns counts the live connections peers have dialled to this
// helper. A peer that hung up is gone from the count: on a leader it tracks
// the live members that ever called it, not every member that ever lived.
func (h *Helper) AcceptedConns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.incoming)
}

// LocalPIDs counts the PID table: this process, the children it forked
// and has not reaped, and any PID registered here by hand.
func (h *Helper) LocalPIDs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.localPIDs)
}

// RegisterGauges installs this helper's live-state gauges — accepted
// election epoch, live accepted connections, the leader-routing cache hit
// rate and the send-ring counters — into the default metrics registry
// under the helper's guest PID, returning an unregister func for test
// teardown.
func (h *Helper) RegisterGauges() func() {
	var names []string
	reg := func(name string, fn func() int64) {
		metrics.Default.RegisterGauge(name, fn)
		names = append(names, name)
	}
	reg(gaugeName("ipc.election_epoch.pid", h.GuestPID), func() int64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.leaderEpoch
	})
	reg(gaugeName("ipc.accepted_conns.pid", h.GuestPID), func() int64 {
		return int64(h.AcceptedConns())
	})
	reg(gaugeName("ipc.route_hit_pct.pid", h.GuestPID), func() int64 {
		hits, misses := int64(h.routeHits.Load()), int64(h.routeMisses.Load())
		if hits+misses == 0 {
			return 100
		}
		return 100 * hits / (hits + misses)
	})
	reg(gaugeName("ipc.ring_ops.pid", h.GuestPID), func() int64 {
		return int64(h.ringHits.Load() + h.ringMisses.Load())
	})
	reg(gaugeName("ipc.ring_hit_pct.pid", h.GuestPID), func() int64 {
		hits, misses := int64(h.ringHits.Load()), int64(h.ringMisses.Load())
		if hits+misses == 0 {
			return 100
		}
		return 100 * hits / (hits + misses)
	})
	return func() {
		for _, n := range names {
			metrics.Default.UnregisterGauge(n)
		}
	}
}

func gaugeName(prefix string, pid int64) string {
	// Tiny int formatting without fmt (init-time and teardown only, but
	// keeping it simple and allocation-light).
	if pid == 0 {
		return prefix + "0"
	}
	var buf [20]byte
	i := len(buf)
	for v := pid; v > 0; v /= 10 {
		i--
		buf[i] = byte('0' + v%10)
	}
	return prefix + string(buf[i:])
}
