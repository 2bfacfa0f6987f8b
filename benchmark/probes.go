package main

import (
	"fmt"
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
	"graphene/internal/pal"
	"graphene/internal/seccomp"
)

// Probes: closed loops that call one layer's public functions directly,
// for the layers no decorator can reach from outside (pal, seccomp, host,
// the ipc transport). A probe does not depend on the workload; its number
// is the floor that layer contributes to every operation crossing it.

const probeBatches = 5

// perOp runs fn in probeBatches batches of n calls and returns the median
// batch's nanoseconds per call.
func perOp(n int, fn func() error) (float64, error) {
	var batches []float64
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		batches = append(batches, float64(time.Since(t0))/float64(n))
	}
	return median(batches), nil
}

// probeEnv is a monitor-launched picoprocess with its PAL, the place the
// pal and monitor probes run.
type probeEnv struct {
	k   *host.Kernel
	mon *monitor.Monitor
	pal *pal.PAL
}

func newProbeEnv() (*probeEnv, error) {
	k := host.NewKernel()
	mon := monitor.New(k)
	man, err := monitor.ParseManifest("probe", benchManifest)
	if err != nil {
		return nil, err
	}
	proc, _, err := mon.Launch(man)
	if err != nil {
		return nil, err
	}
	return &probeEnv{k: k, mon: mon, pal: pal.New(k, proc, mon)}, nil
}

// pipePair opens a connected stream pair through the PAL's pipe namespace,
// the way libLinux builds pipe(2).
func (e *probeEnv) pipePair(name string) (a, b *host.Handle, err error) {
	srv, err := e.pal.DkStreamOpen("pipe.srv:"+name, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	defer e.pal.DkObjectClose(srv)
	type accepted struct {
		h   *host.Handle
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		h, err := e.pal.DkStreamWaitForClient(srv)
		ch <- accepted{h, err}
	}()
	a, err = e.pal.DkStreamOpen("pipe:"+name, 0, 0)
	res := <-ch
	if err != nil {
		return nil, nil, err
	}
	return a, res.h, res.err
}

// probes runs the probes once per process: they do not depend on the
// workload, so a command that runs every workload measures them once.
var probes = sync.OnceValues(runProbes)

// runProbes returns every probe metric. Probes are independent: each sets
// up what it needs and tears it down. The first error ends the run.
func runProbes() (out map[string]float64, err error) {
	out = map[string]float64{}
	prev := host.SetTraceLevel(host.TraceOff)
	defer host.SetTraceLevel(prev)

	// probe measures fn and stores scale × its ns per call under name;
	// must aborts on a set-up error. Both unwind to the recover below.
	type abort struct{ err error }
	defer func() {
		switch r := recover().(type) {
		case nil:
		case abort:
			out, err = nil, r.err
		default:
			panic(r)
		}
	}()
	must := func(err error) {
		if err != nil {
			panic(abort{err})
		}
	}
	probe := func(name string, scale float64, n int, fn func() error) {
		ns, err := perOp(n, fn)
		if err != nil {
			panic(abort{fmt.Errorf("probe %s: %w", name, err)})
		}
		out[name] = scale * ns
	}
	const ns, us = 1, 1e-3

	e, err := newProbeEnv()
	must(err)
	p := e.pal

	// --- pal ---
	probe("pal.vm_alloc_free_ns", ns, 2000, func() error {
		addr, err := p.DkVirtualMemoryAlloc(0, 64<<10, api.ProtRead|api.ProtWrite)
		if err != nil {
			return err
		}
		return p.DkVirtualMemoryFree(addr, 64<<10)
	})

	must(e.k.FS.WriteFile("/probe-file", make([]byte, 4096), 0644))
	probe("pal.file_open_close_ns", ns, 2000, func() error {
		h, err := p.DkStreamOpen("file:/probe-file", api.ORdOnly, 0)
		if err != nil {
			return err
		}
		return p.DkObjectClose(h)
	})

	pa, pb, err := e.pipePair("probe-rw")
	must(err)
	msg, buf := make([]byte, 64), make([]byte, 64)
	probe("pal.pipe_rw_ns", ns, 5000, func() error {
		if _, err := p.DkStreamWrite(pa, msg); err != nil {
			return err
		}
		_, err := p.DkStreamRead(pb, buf)
		return err
	})

	// Handle passing: what PassConnection costs under libLinux.
	probe("pal.handle_pass_ns", ns, 1000, func() error {
		h, err := p.DkStreamOpen("file:/probe-file", api.ORdOnly, 0)
		if err != nil {
			return err
		}
		if err := p.DkSendHandle(pa, h); err != nil {
			return err
		}
		got, err := p.DkReceiveHandle(pb)
		if err != nil {
			return err
		}
		_ = p.DkObjectClose(h)
		return p.DkObjectClose(got)
	})
	_ = p.DkObjectClose(pa)
	_ = p.DkObjectClose(pb)

	probe("pal.process_create_us", us, 100, func() error {
		done := make(chan struct{})
		child, s, err := p.DkProcessCreate(func(c *pal.PAL, _ *host.Stream) {
			close(done)
			c.DkProcessExit(0)
		}, false)
		if err != nil {
			return err
		}
		<-done
		_ = child.ExitEvent().Wait(0)
		s.Close()
		return nil
	})

	// Bulk IPC: commit 1 MiB of touched pages and map them into a child.
	const mib = 1 << 20
	src, err := p.DkVirtualMemoryAlloc(0, mib, api.ProtRead|api.ProtWrite)
	must(err)
	must(p.Proc().AS.TouchRange(src, mib))
	ready := make(chan *pal.PAL, 1)
	release := make(chan struct{})
	_, cs, err := p.DkProcessCreate(func(c *pal.PAL, _ *host.Stream) {
		ready <- c
		<-release
		c.DkProcessExit(0)
	}, false)
	must(err)
	child := <-ready
	defer func() {
		close(release)
		cs.Close()
	}()
	probe("pal.physmem_us_per_mb", us, 50, func() error {
		store, err := p.DkCreatePhysicalMemoryChannel()
		if err != nil {
			return err
		}
		if _, err := p.DkPhysicalMemoryCommit(store, src, mib); err != nil {
			return err
		}
		if _, err := child.DkPhysicalMemoryMap(store, src); err != nil {
			return err
		}
		if err := child.DkVirtualMemoryFree(src, mib); err != nil {
			return err
		}
		return p.DkObjectClose(store)
	})

	// --- seccomp ---
	filter := seccomp.GrapheneFilter()
	out["seccomp.filter_insns"] = float64(filter.Len())
	// The mix a picoprocess produces: mostly PAL-issued allowed calls, now
	// and then an application-issued one the filter traps.
	nrs := host.PALSyscalls
	i, sink := 0, 0
	probe("seccomp.eval_ns", ns, 200000, func() error {
		i++
		sink += int(filter.Evaluate(nrs[i%len(nrs)], i%16 != 0))
		return nil
	})
	_ = sink

	// --- monitor ---
	proc := p.Proc()
	probe("monitor.check_open_ns", ns, 100000, func() error { return e.mon.CheckOpen(proc, "/mix/f7", true) })
	probe("monitor.translate_path_ns", ns, 100000, func() error {
		_, err := e.mon.TranslatePath(proc, "/mix/f7")
		return err
	})

	// --- host ---
	sa, sb := host.NewStreamPair("probe", 1, 2)
	go func() {
		b := make([]byte, 64)
		for {
			n, err := sb.Read(b)
			if err != nil || n == 0 {
				return
			}
			if _, err := sb.Write(b[:n]); err != nil {
				return
			}
		}
	}()
	defer sa.Close()
	probe("host.stream_pingpong_ns", ns, 5000, func() error {
		if _, err := sa.Write(msg); err != nil {
			return err
		}
		_, err := sa.Read(buf)
		return err
	})

	ta, tb := host.NewStreamPair("probe-bulk", 1, 2)
	go func() {
		b := make([]byte, 64<<10)
		for {
			if n, err := tb.Read(b); err != nil || n == 0 {
				return
			}
		}
	}()
	defer ta.Close()
	chunk := make([]byte, 64<<10)
	probe("host.stream_64k_gbps", ns, 500, func() error { _, err := ta.Write(chunk); return err })
	// ns per 64 KiB chunk -> gigabits per second.
	out["host.stream_64k_gbps"] = float64(len(chunk)) * 8 / out["host.stream_64k_gbps"]

	fs := host.NewFileSystem()
	page := make([]byte, 4096)
	probe("host.fs_write_read_ns", ns, 5000, func() error {
		if err := fs.WriteFile("/f", page, 0644); err != nil {
			return err
		}
		_, err := fs.ReadFile("/f")
		return err
	})

	as := host.NewAddressSpace()
	defer as.Release()
	base, err := as.Alloc(0, treeHeap, api.ProtRead|api.ProtWrite)
	must(err)
	must(as.TouchRange(base, treeHeap))
	probe("host.as_fork_cow_us", us, 20, func() error {
		as.ForkCOW().Release()
		return nil
	})

	k2 := host.NewKernel()
	probe("host.create_process_us", us, 200, func() error {
		proc, err := k2.CreateProcess(nil, false)
		if err != nil {
			return err
		}
		proc.Exit(0)
		return nil
	})

	// --- ipc transport ---
	ca, cb := host.NewStreamPair("probe-ipc", 1, 2)
	echo := func(f ipc.Frame, respond func(ipc.Frame)) {
		if f.Type == ipc.MsgPing {
			respond(f.Response(ipc.Frame{A: f.A}))
		}
	}
	connA := ipc.NewConn(ca, "ipc.A", echo, nil)
	connB := ipc.NewConn(cb, "ipc.B", echo, nil)
	defer connA.Close()
	defer connB.Close()
	var seq int64
	probe("ipc.conn_roundtrip_ns", ns, 5000, func() error {
		seq++
		_, err := connA.Call(ipc.Frame{Type: ipc.MsgPing, A: seq})
		return err
	})
	probe("ipc.notify_ns", ns, 20000, func() error {
		seq++
		return connA.Notify(ipc.Frame{Type: ipc.MsgSignal, A: seq})
	})
	must(connA.Flush())

	// Helper.Ping between two live libOS instances: the floor under every
	// remote operation (AllocPID, exit notification, a key lookup).
	ping, err := probePing()
	must(err)
	out["ipc.ping_ns"] = ping
	return out, nil
}

// probePing boots Graphene, forks once, and has the child ping the leader.
func probePing() (float64, error) {
	m, err := bootGraphene(nil)
	if err != nil {
		return 0, err
	}
	var ns float64
	var perr error
	prog := func(p api.OS, _ []string) int {
		pid, err := p.Fork(func(c api.OS) {
			h := c.(*liblinux.Process).Helper()
			leader := h.LeaderAddr()
			ns, perr = perOp(5000, func() error { return h.Ping(leader) })
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		if _, err := p.Wait(pid); err != nil {
			return 1
		}
		return 0
	}
	if err := m.register(driverPath, prog); err != nil {
		return 0, err
	}
	exited, code, err := m.launch(driverPath)
	if err != nil {
		return 0, err
	}
	select {
	case <-exited:
	case <-time.After(roundDeadline):
		return 0, fmt.Errorf("ping probe hung")
	}
	if code() != 0 {
		return 0, fmt.Errorf("ping probe exited with code %d", code())
	}
	return ns, perr
}
