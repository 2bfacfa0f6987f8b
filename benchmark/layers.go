package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"graphene/internal/host"
	"graphene/internal/metrics"
)

// perLayer lists the metrics of single layers (layer = module name). They
// have no bound: they explain an end-to-end change, they do not gate one.
// Every traced run prints every one of them; a metric that does not apply
// to the workload (liblinux.fork_p50_us on sysv_rpc) reads 0. README.md
// says for each which end-to-end metric it should move on which workload.
var perLayer = []metricDef{
	// liblinux — spans of the api.OS decorator.
	{Name: "liblinux.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "liblinux.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "liblinux.errors", Unit: "count", Better: "lower"},
	{Name: "liblinux.open_close_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.read_write_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.pipe_rt_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.signal_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.mmap_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.fork_p50_us", Unit: "us", Better: "lower"},
	{Name: "liblinux.spawn_p50_us", Unit: "us", Better: "lower"},
	{Name: "liblinux.wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "liblinux.checkpoint_kb", Unit: "KB", Better: "lower"},
	{Name: "liblinux.msgsnd_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.msgrcv_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.semop_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.msgget_create_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.msgget_lookup_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.rmid_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "liblinux.connect_p50_us", Unit: "us", Better: "lower"},
	{Name: "liblinux.accept_p50_us", Unit: "us", Better: "lower"},
	{Name: "liblinux.passconn_p50_us", Unit: "us", Better: "lower"},
	// pal, seccomp — direct probes.
	{Name: "pal.vm_alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "pal.file_open_close_ns", Unit: "ns", Better: "lower"},
	{Name: "pal.pipe_rw_ns", Unit: "ns", Better: "lower"},
	{Name: "pal.handle_pass_ns", Unit: "ns", Better: "lower"},
	{Name: "pal.process_create_us", Unit: "us", Better: "lower"},
	{Name: "pal.physmem_us_per_mb", Unit: "us", Better: "lower"},
	{Name: "seccomp.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "seccomp.filter_insns", Unit: "count", Better: "lower"},
	// monitor — spans of the host.Policy decorator, and probes.
	{Name: "monitor.checks_per_op", Unit: "count", Better: "lower"},
	{Name: "monitor.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "monitor.denied", Unit: "count", Better: "lower"},
	{Name: "monitor.check_open_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.translate_path_ns", Unit: "ns", Better: "lower"},
	// host — probes, then counts from the kernel and the flight recorders.
	{Name: "host.stream_pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "host.stream_64k_gbps", Unit: "Gb/s", Better: "higher"},
	{Name: "host.fs_write_read_ns", Unit: "ns", Better: "lower"},
	{Name: "host.as_fork_cow_us", Unit: "us", Better: "lower"},
	{Name: "host.create_process_us", Unit: "us", Better: "lower"},
	{Name: "host.gates_per_op", Unit: "count", Better: "lower"},
	{Name: "host.stream_ops_per_op", Unit: "count", Better: "lower"},
	{Name: "host.stream_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "host.trace_dropped", Unit: "count", Better: "lower"},
	{Name: "host.retained_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "host.resident_mb", Unit: "MB", Better: "lower"},
	// ipc — the metrics registry, the helpers' gauges, and probes.
	{Name: "ipc.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "ipc.rpc_busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "ipc.rpc_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "ipc.elections", Unit: "count", Better: "lower"},
	{Name: "ipc.ring_hit_pct", Unit: "%", Better: "higher"},
	{Name: "ipc.ring_ops_per_op", Unit: "count", Better: "higher"},
	{Name: "ipc.route_hit_pct", Unit: "%", Better: "higher"},
	{Name: "ipc.live_leases", Unit: "count", Better: "lower"},
	{Name: "ipc.stale_lookups", Unit: "count", Better: "lower"},
	{Name: "ipc.ping_ns", Unit: "ns", Better: "lower"},
	{Name: "ipc.conn_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "ipc.notify_ns", Unit: "ns", Better: "lower"},
	// apps — a step span and the fleet's scoreboard.
	{Name: "apps.sh_pipeline_p50_us", Unit: "us", Better: "lower"},
	{Name: "apps.fleet_alive", Unit: "count", Better: "higher"},
	{Name: "apps.fleet_crashes", Unit: "count", Better: "lower"},
	{Name: "apps.fleet_shed", Unit: "count", Better: "lower"},
	// baseline — the same driver on the native-Linux personality.
	{Name: "baseline.native_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "baseline.overhead_x", Unit: "ratio", Better: "lower"},
	// bench — the harness about itself.
	{Name: "bench.p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.round_iqr_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.open_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.open_p90_us", Unit: "us", Better: "lower"},
	{Name: "bench.late_p90_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.unattributed_frac", Unit: "ratio", Better: "lower"},
}

// spanStats is what one traced round's spans add up to.
type spanStats struct {
	unitNS     float64            // Σ duration of timed unit spans
	units      int                // timed units
	byName     map[string][]int64 // driver liblinux call durations, by call
	allByName  map[string][]int64 // liblinux call durations of every process
	stepCalls  map[string][]int64 // per step instance: Σ its liblinux children
	stepDur    map[string][]int64 // per step instance: its own duration
	stepCall   map[string][]int64 // step/Call -> durations
	calls      int                // liblinux spans of timed units, all processes
	callErrs   int
	driverNS   float64 // Σ driver liblinux span durations
	driverSelf float64 // … minus the monitor spans they cover
	monitorNS  float64
	checks     int
	denied     int
}

// summarize folds a round's spans. Only spans of timed units (unit >= 0)
// count; warm-up units are numbered below zero.
func summarize(spans []span) *spanStats {
	st := &spanStats{
		byName: map[string][]int64{}, allByName: map[string][]int64{},
		stepCalls: map[string][]int64{}, stepDur: map[string][]int64{}, stepCall: map[string][]int64{},
	}
	// Span IDs are positions in the slice, so the parent of a span is one
	// index away.
	at := func(id int32) *span {
		if id <= 0 || int(id) > len(spans) {
			return nil
		}
		return &spans[id-1]
	}
	stepSum := map[int32]int64{}
	monUnder := map[int32]int64{} // liblinux span -> Σ monitor children
	for i := range spans {
		s := &spans[i]
		if s.Unit < 0 {
			continue
		}
		dur := s.End - s.Start
		switch s.Layer {
		case layerBench:
			if s.Name == "unit" {
				st.unitNS += float64(dur)
				st.units++
			} else {
				st.stepDur[s.Name] = append(st.stepDur[s.Name], dur)
			}
		case layerLiblinux:
			st.calls++
			parent := at(s.Parent)
			// ns_churn looks a removed key up to see ENOENT: that error is
			// the correct outcome, not a failed operation.
			if s.Failed && !(parent != nil && parent.Name == "lookup_removed") {
				st.callErrs++
			}
			st.allByName[s.Name] = append(st.allByName[s.Name], dur)
			if parent != nil && parent.Layer == layerBench {
				st.byName[s.Name] = append(st.byName[s.Name], dur)
				st.driverNS += float64(dur)
				if parent.Name != "unit" {
					stepSum[parent.ID] += dur
					key := parent.Name + "/" + s.Name
					st.stepCall[key] = append(st.stepCall[key], dur)
				}
			}
		case layerMonitor:
			st.checks++
			st.monitorNS += float64(dur)
			if s.Failed {
				st.denied++
			}
			if parent := at(s.Parent); parent != nil && parent.Layer == layerLiblinux {
				monUnder[parent.ID] += dur
			}
		}
	}
	for id, sum := range stepSum {
		st.stepCalls[at(id).Name] = append(st.stepCalls[at(id).Name], sum)
	}
	st.driverSelf = st.driverNS
	for id, covered := range monUnder {
		if parent := at(at(id).Parent); parent != nil && parent.Layer == layerBench {
			st.driverSelf -= float64(covered)
		}
	}
	return st
}

// gaugeSum adds up the registry gauges whose name starts with prefix.
func gaugeSum(snap metrics.RegistrySnapshot, prefix string) (sum float64, n int) {
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, prefix) {
			sum += float64(g.Value)
			n++
		}
	}
	return sum, n
}

// readLayers takes a traced round's per-layer readings at its measuring
// point: everything is still alive, nothing is running.
func readLayers(w *workload, r *roundRec, k *host.Kernel) map[string]float64 {
	out := map[string]float64{}
	r.spans = r.t.snapshot()
	st := summarize(r.spans)
	units := float64(st.units)
	if units == 0 {
		return out
	}
	p50 := func(xs []int64) float64 { return float64(percentile(sortedCopy(xs), 0.50)) }

	// liblinux
	out["liblinux.calls_per_op"] = float64(st.calls) / units
	out["liblinux.busy_frac"] = st.driverSelf / st.unitNS
	out["liblinux.errors"] = float64(st.callErrs)
	out["liblinux.open_close_p50_ns"] = p50(st.stepCall["file/Open"]) + p50(st.stepCall["file/Close"])
	out["liblinux.read_write_p50_ns"] = p50(st.stepCall["file/Read"]) + p50(st.stepCall["file/Write"])
	out["liblinux.pipe_rt_p50_ns"] = p50(st.stepCalls["pipe_rt"])
	out["liblinux.signal_p50_ns"] = p50(st.stepCalls["signal"])
	out["liblinux.mmap_p50_ns"] = p50(st.stepCalls["mmap"])
	out["liblinux.fork_p50_us"] = p50(st.stepCall["fork_exit_wait/Fork"]) / 1e3
	out["liblinux.spawn_p50_us"] = p50(st.stepCall["spawn_wait/Spawn"]) / 1e3
	out["liblinux.wait_p50_us"] = p50(st.byName["Wait"]) / 1e3
	out["liblinux.checkpoint_kb"] = r.checkpointKB
	out["liblinux.msgsnd_p50_ns"] = p50(st.stepCall["request/Msgsnd"])
	out["liblinux.msgrcv_p50_ns"] = p50(st.stepCall["reply/Msgrcv"])
	out["liblinux.semop_p50_ns"] = p50(append(st.stepCall["sem_p/Semop"], st.stepCall["sem_v/Semop"]...))
	out["liblinux.msgget_create_p50_ns"] = p50(st.stepCalls["create"])
	out["liblinux.msgget_lookup_p50_ns"] = p50(st.stepCalls["lookup"])
	out["liblinux.rmid_p50_ns"] = p50(st.stepCalls["remove"])
	out["liblinux.connect_p50_us"] = p50(st.stepCall["connect/Connect"]) / 1e3
	out["liblinux.accept_p50_us"] = p50(st.allByName["Accept"]) / 1e3
	out["liblinux.passconn_p50_us"] = p50(st.allByName["PassConnection"]) / 1e3

	// monitor
	out["monitor.checks_per_op"] = float64(st.checks) / units
	out["monitor.busy_frac"] = st.monitorNS / st.unitNS
	out["monitor.denied"] = float64(st.denied)

	// apps
	out["apps.sh_pipeline_p50_us"] = p50(st.stepDur["sh_pipeline"]) / 1e3
	if r.board != "" {
		out["apps.fleet_alive"] = float64(boardField(r.board, "alive"))
		out["apps.fleet_crashes"] = float64(boardField(r.board, "crashes"))
		out["apps.fleet_shed"] = float64(boardField(r.board, "shed"))
	}

	// bench
	out["bench.unattributed_frac"] = 1 - st.driverNS/st.unitNS

	// host: gate entries are counted by the kernel itself.
	out["host.gates_per_op"] = float64(r.gates1-r.gates0) / units

	// ipc: RPC histograms (reset when the timed phase began) and gauges.
	snap := metrics.Default.Snapshot()
	var rpcs, rpcNS float64
	var busiest metrics.HistSnapshot
	for _, h := range snap.Histograms {
		if !strings.HasPrefix(h.Name, "rpc.") {
			continue
		}
		rpcs += float64(h.Count)
		rpcNS += h.Mean * float64(h.Count)
		if h.Count > busiest.Count {
			busiest = h
		}
	}
	out["ipc.rpcs_per_op"] = rpcs / units
	out["ipc.rpc_busy_frac"] = rpcNS / st.unitNS
	out["ipc.rpc_p50_ns"] = float64(busiest.P50)
	var elections float64
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "ipc.election_epoch.pid") && float64(g.Value) > elections {
			elections = float64(g.Value)
		}
	}
	out["ipc.elections"] = elections
	// Ring hits: each helper publishes its operation count and hit share.
	gauge := make(map[string]float64, len(snap.Gauges))
	for _, g := range snap.Gauges {
		gauge[g.Name] = float64(g.Value)
	}
	var ringOps, ringHits float64
	for name, ops := range gauge {
		if pid, ok := strings.CutPrefix(name, "ipc.ring_ops.pid"); ok {
			ringOps += ops
			ringHits += ops * gauge["ipc.ring_hit_pct.pid"+pid] / 100
		}
	}
	ringTotal := ringOps
	ringOps -= r.ringOps0
	if ringOps < 0 {
		ringOps = 0
	}
	out["ipc.ring_ops_per_op"] = ringOps / units
	if ringTotal > 0 {
		out["ipc.ring_hit_pct"] = 100 * ringHits / ringTotal
	}
	if sum, n := gaugeSum(snap, "ipc.route_hit_pct.pid"); n > 0 {
		out["ipc.route_hit_pct"] = sum / float64(n)
	}
	out["ipc.live_leases"], _ = gaugeSum(snap, "ipc.live_leases.pid")

	if host.TraceVerboseEnabled() {
		readRecorders(out, r, k, units)
	}
	return out
}

// readRecorders counts, in the kernel's flight recorders, the stream
// operations of the timed window. Only the verbose round calls it.
func readRecorders(out map[string]float64, r *roundRec, k *host.Kernel, units float64) {
	var ops, bytes, wrapped float64
	for _, pt := range k.TraceSnapshots() {
		if pt.Dropped > 0 && len(pt.Events) > 0 && pt.Events[0].TS > r.trace0 {
			wrapped++ // this ring overwrote events of the window
		}
		for _, ev := range pt.Events {
			if ev.TS < r.trace0 || ev.TS > r.trace1 {
				continue
			}
			if ev.Kind == host.EvStreamRead || ev.Kind == host.EvStreamWrite {
				ops++
				bytes += float64(ev.Arg)
			}
		}
	}
	out["host.stream_ops_per_op"] = ops / units
	out["host.stream_bytes_per_op"] = bytes / units
	out["host.trace_dropped"] = wrapped
}

// onTimedStart and onTimedStop bracket the timed window for the counters
// the program keeps itself. They run inside startTimed/stopTimed, outside
// the timed window.
func (r *roundRec) onTimedStart() {
	if r.kernel == nil {
		return
	}
	if r.t != nil {
		metrics.Default.Reset()
		r.ringOps0, _ = gaugeSum(metrics.Default.Snapshot(), "ipc.ring_ops.pid")
		r.trace0 = host.TraceNow()
	}
	r.gates0 = r.kernel.SyscallCount()
}

func (r *roundRec) onTimedStop() {
	if r.kernel == nil {
		return
	}
	r.gates1 = r.kernel.SyscallCount()
	if r.t != nil {
		r.trace1 = host.TraceNow()
	}
}

// runTraced produces w's per-layer metrics: reference rounds untraced,
// the same rounds traced (their ratio is the tracing overhead), one small
// verbose round for exact host counts, the native baseline, the probes.
func runTraced(w *workload, cfg runConfig) (*result, error) {
	n := cfg.tracedRounds()
	res := &result{Workload: w.name, Seed: cfg.seed, Traced: true, Rounds: n,
		Metrics: map[string]metric{}, PerRound: map[string][]float64{}}
	units := cfg.unitsOf(w)

	// Reference rounds, untraced.
	var refOps, p99, samples, open50, open90, late, retained, resident []float64
	prev := host.SetTraceLevel(host.TraceOff)
	defer host.SetTraceLevel(prev)
	for i := 0; i < n; i++ {
		r, err := runRound(w, cfg.seed, 100+i, units, false, nil)
		if err != nil {
			return nil, fmt.Errorf("%s reference round %d: %w", w.name, i, err)
		}
		account(res, "reference", i, r)
		lat := sortedCopy(r.lat)
		refOps = append(refOps, roundValues(r)["ops_per_s"])
		p99 = append(p99, float64(percentile(lat, 0.99))/1e3)
		samples = append(samples, float64(len(lat)))
		open := sortedCopy(r.openLat)
		open50 = append(open50, float64(percentile(open, 0.50))/1e3)
		open90 = append(open90, float64(percentile(open, 0.90))/1e3)
		late = append(late, float64(percentile(sortedCopy(r.late), 0.90))/1e3)
		retained = append(retained, r.retainedMB*1024/float64(r.attempted))
		resident = append(resident, r.residentMB)
	}

	// Traced rounds: decorators on, the program's own recorder at its
	// default level so the rpc.* histograms fill.
	host.SetTraceLevel(host.TraceOn)
	layer := map[string][]float64{}
	var tracedOps []float64
	var lastSpans []span
	for i := 0; i < n; i++ {
		t := newTracer()
		r, err := runRound(w, cfg.seed, 100+i, units, false, t)
		t.unregisterGauges()
		if err != nil {
			return nil, fmt.Errorf("%s traced round %d: %w", w.name, i, err)
		}
		account(res, "traced", i, r)
		tracedOps = append(tracedOps, roundValues(r)["ops_per_s"])
		for name, v := range r.layer {
			layer[name] = append(layer[name], v)
		}
		lastSpans = r.spans
	}

	// One verbose round, small enough that no flight recorder wraps.
	host.SetTraceLevel(host.TraceVerbose)
	vu := min(w.verboseUnits, units)
	t := newTracer()
	r, err := runRound(w, cfg.seed, 200, vu, false, t)
	t.unregisterGauges()
	if err != nil {
		return nil, fmt.Errorf("%s verbose round: %w", w.name, err)
	}
	account(res, "verbose", 0, r)
	for _, name := range []string{"host.stream_ops_per_op", "host.stream_bytes_per_op", "host.trace_dropped"} {
		layer[name] = []float64{r.layer[name]}
	}
	host.SetTraceLevel(host.TraceOff)

	// The same driver on the native-Linux personality.
	var nativeOps []float64
	for i := 0; i < (n+1)/2; i++ {
		r, err := runRound(w, cfg.seed, 100+i, units, true, nil)
		if err != nil {
			return nil, fmt.Errorf("%s native round %d: %w", w.name, i, err)
		}
		account(res, "native", i, r)
		nativeOps = append(nativeOps, roundValues(r)["ops_per_s"])
	}

	probed, err := probes()
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	for name, v := range probed {
		vals[name] = v
	}
	for name, vs := range layer {
		vals[name] = median(vs)
	}
	// Counts that must be zero are not smoothed by a median: one event in
	// any round of the run shows.
	for _, name := range []string{"monitor.denied", "ipc.elections"} {
		vals[name] = slices.Max(append(layer[name], 0))
	}
	vals["ipc.stale_lookups"] = float64(res.stale)
	ref := median(refOps)
	vals["host.retained_kb_per_op"] = median(retained)
	vals["host.resident_mb"] = median(resident)
	vals["baseline.native_ops_per_s"] = median(nativeOps)
	if ref > 0 {
		vals["baseline.overhead_x"] = median(nativeOps) / ref
		vals["bench.trace_overhead_frac"] = 1 - median(tracedOps)/ref
	}
	vals["bench.p99_us"] = median(p99)
	vals["bench.samples"] = median(samples)
	vals["bench.round_iqr_frac"] = iqrFrac(refOps)
	vals["bench.open_p50_us"] = median(open50)
	vals["bench.open_p90_us"] = median(open90)
	vals["bench.late_p90_us"] = median(late)
	for _, def := range perLayer {
		res.Metrics[def.Name] = metric{vals[def.Name], def.Unit}
	}
	res.judgeCorrect()
	res.Correct = res.Correct && vals["ipc.elections"] == 0 && vals["monitor.denied"] == 0
	if vals["ipc.elections"] != 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("ipc.elections = %v: a leader election ran in a run with no failures injected", vals["ipc.elections"]))
	}
	if vals["monitor.denied"] != 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("monitor.denied = %v under a manifest that permits everything", vals["monitor.denied"]))
	}

	if err := os.MkdirAll(cfg.traceDir, 0755); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile(cfg.traceDir, w.name), w.name, lastSpans, maxSpansWritten); err != nil {
		return nil, err
	}
	return res, nil
}

// maxSpansWritten caps the span file: syscall_mix alone records about a
// million spans a round.
const maxSpansWritten = 200000
