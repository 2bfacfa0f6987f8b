package host

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Flight-recorder dump rendering: per-picoprocess event listings plus
// cross-picoprocess trace trees reassembled from the Trace/Span/Parent
// fields RPC frames carry. One guest syscall's RPC fan-out — caller →
// helper → leader → reply, including failover hops — renders as a single
// tree even though its events live in different picoprocesses' rings.

// traceNode is one span in a reassembled trace tree.
type traceNode struct {
	pid      int
	ev       TraceEvent
	children []*traceNode
}

// traceTree is all spans sharing one Trace ID.
type traceTree struct {
	id    uint64
	roots []*traceNode
}

// buildTraceTrees reassembles trace trees from every traced event in the
// snapshots. Spans whose parent was not captured (ring wrap, or a parent
// hop that records no event of its own) become roots of their trace.
func buildTraceTrees(snaps []ProcTrace) []traceTree {
	bySpan := make(map[uint64]*traceNode)
	var all []*traceNode
	for _, s := range snaps {
		for _, ev := range s.Events {
			if ev.Trace == 0 {
				continue
			}
			n := &traceNode{pid: s.PID, ev: ev}
			all = append(all, n)
			if ev.Span != 0 {
				bySpan[ev.Span] = n
			}
		}
	}
	trees := make(map[uint64]*traceTree)
	order := []uint64{}
	for _, n := range all {
		if p, ok := bySpan[n.ev.Parent]; ok && n.ev.Parent != 0 && p != n {
			p.children = append(p.children, n)
			continue
		}
		tt := trees[n.ev.Trace]
		if tt == nil {
			tt = &traceTree{id: n.ev.Trace}
			trees[n.ev.Trace] = tt
			order = append(order, n.ev.Trace)
		}
		tt.roots = append(tt.roots, n)
	}
	out := make([]traceTree, 0, len(order))
	for _, id := range order {
		tt := trees[id]
		sortNodes(tt.roots)
		for _, r := range tt.roots {
			sortChildren(r)
		}
		out = append(out, *tt)
	}
	sort.Slice(out, func(i, j int) bool {
		return firstTS(out[i]) < firstTS(out[j])
	})
	return out
}

func firstTS(tt traceTree) int64 {
	if len(tt.roots) == 0 {
		return 0
	}
	return tt.roots[0].ev.TS
}

func sortNodes(ns []*traceNode) {
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].ev.TS < ns[j].ev.TS })
}

func sortChildren(n *traceNode) {
	sortNodes(n.children)
	for _, c := range n.children {
		sortChildren(c)
	}
}

// RPCTypeName resolves an RPC message-type code to a name for dump
// rendering. The ipc package installs its MsgType namer at init (host
// cannot import ipc); nil falls back to the numeric code.
var RPCTypeName func(code uint32) string

// eventDetail renders one event's type-specific fields.
func eventDetail(ev TraceEvent, rec *FlightRecorder) string {
	var b strings.Builder
	switch ev.Kind {
	case EvSyscall, EvGate:
		fmt.Fprintf(&b, "%s", SyscallName(int(ev.Code)))
		if ev.Arg != 0 {
			fmt.Fprintf(&b, " arg=%#x", ev.Arg)
		}
	case EvRPCCall, EvRPCServe:
		if RPCTypeName != nil {
			b.WriteString(RPCTypeName(ev.Code))
		} else {
			fmt.Fprintf(&b, "msgtype=%d", ev.Code)
		}
	case EvStreamRead, EvStreamWrite:
		fmt.Fprintf(&b, "bytes=%d", ev.Arg)
	case EvFault:
		fmt.Fprintf(&b, "point=%s", rec.PointName(ev.Arg))
	case EvElection:
		fmt.Fprintf(&b, "epoch=%d", ev.Arg)
	case EvRingBypass:
		switch ev.Code {
		case 1:
			b.WriteString("grant")
		case 2:
			b.WriteString("map")
		default:
			b.WriteString("revoke")
		}
		fmt.Fprintf(&b, " seg=%d", ev.Arg)
	}
	if ev.Errno != 0 {
		fmt.Fprintf(&b, " errno=%d", ev.Errno)
	}
	if ev.Dur > 0 {
		fmt.Fprintf(&b, " dur=%.1fµs", float64(ev.Dur)/1e3)
	}
	if ev.Trace != 0 {
		fmt.Fprintf(&b, " trace=%d span=%d", ev.Trace, ev.Span)
		if ev.Parent != 0 {
			fmt.Fprintf(&b, " parent=%d", ev.Parent)
		}
	}
	return b.String()
}

// WriteTraceText renders the kernel's flight recorders: one section per
// picoprocess (oldest event first) followed by the reassembled trace trees.
func (k *Kernel) WriteTraceText(w io.Writer) {
	snaps := k.TraceSnapshots()
	for _, s := range snaps {
		state := "exited"
		if s.Live {
			state = "live"
		}
		fmt.Fprintf(w, "== pid %d (sandbox %d, %s, %d events, %d dropped) ==\n",
			s.PID, s.SandboxID, state, len(s.Events), s.Dropped)
		for _, ev := range s.Events {
			fmt.Fprintf(w, "  %6d %12.1fµs %-15s %s\n",
				ev.Seq, float64(ev.TS)/1e3, ev.Kind.String(), eventDetail(ev, s.Rec))
		}
	}
	trees := buildTraceTrees(snaps)
	if len(trees) == 0 {
		return
	}
	fmt.Fprintf(w, "== trace trees ==\n")
	for _, tt := range trees {
		fmt.Fprintf(w, "trace %d\n", tt.id)
		for _, r := range tt.roots {
			writeTraceNode(w, r, 1)
		}
	}
}

func writeTraceNode(w io.Writer, n *traceNode, depth int) {
	fmt.Fprintf(w, "%s[pid %d] %s %s\n",
		strings.Repeat("  ", depth), n.pid, n.ev.Kind.String(), eventDetail(n.ev, nil))
	for _, c := range n.children {
		writeTraceNode(w, c, depth+1)
	}
}

// TraceTextString renders WriteTraceText into a string (test dumps).
func (k *Kernel) TraceTextString() string {
	var b strings.Builder
	k.WriteTraceText(&b)
	return b.String()
}

// traceJSONEvent mirrors TraceEvent with the kind named and the
// fault-point index resolved.
type traceJSONEvent struct {
	Seq    uint64 `json:"seq"`
	TS     int64  `json:"ts_ns"`
	Kind   string `json:"kind"`
	Code   uint32 `json:"code,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
	Errno  int32  `json:"errno,omitempty"`
	Dur    int64  `json:"dur_ns,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Point  string `json:"point,omitempty"`
}

// traceJSONProc is one picoprocess's recorder in the JSON dump.
type traceJSONProc struct {
	PID     int              `json:"pid"`
	Sandbox int              `json:"sandbox"`
	Live    bool             `json:"live"`
	Dropped uint64           `json:"dropped"`
	Events  []traceJSONEvent `json:"events"`
}

// WriteTraceJSON renders the kernel's flight recorders as JSON.
func (k *Kernel) WriteTraceJSON(w io.Writer) error {
	snaps := k.TraceSnapshots()
	procs := make([]traceJSONProc, 0, len(snaps))
	for _, s := range snaps {
		jp := traceJSONProc{
			PID: s.PID, Sandbox: s.SandboxID, Live: s.Live, Dropped: s.Dropped,
			Events: make([]traceJSONEvent, 0, len(s.Events)),
		}
		for _, ev := range s.Events {
			je := traceJSONEvent{
				Seq: ev.Seq, TS: ev.TS, Kind: ev.Kind.String(),
				Code: ev.Code, Arg: ev.Arg, Errno: ev.Errno, Dur: ev.Dur,
				Trace: ev.Trace, Span: ev.Span, Parent: ev.Parent,
			}
			if ev.Kind == EvFault {
				je.Point = s.Rec.PointName(ev.Arg)
			}
			jp.Events = append(jp.Events, je)
		}
		procs = append(procs, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Picoprocesses []traceJSONProc `json:"picoprocesses"`
	}{procs})
}

// TestReporter is the slice of *testing.T the dump-on-failure helper
// needs, declared locally so non-test code never imports testing.
type TestReporter interface {
	Failed() bool
	Logf(format string, args ...interface{})
	Cleanup(func())
	Helper()
}

// DumpTracesOnFailure arranges for the kernel's flight recorders to be
// dumped into the test log if the test fails — chaos and conformance
// suites register it right after building their kernel, so a failure
// report carries the recorded interleaving of every involved picoprocess.
func DumpTracesOnFailure(t TestReporter, k *Kernel) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		t.Logf("flight-recorder dump:\n%s", k.TraceTextString())
	})
}
