package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphene/internal/api"
	"graphene/internal/metrics"
)

// traceUsage documents the trace subcommand.
const traceUsage = `usage: graphene trace dump [-json] [-manifest FILE] [PROGRAM [ARGS...]]

Runs PROGRAM under the Graphene personality with the flight recorder on,
then dumps every picoprocess's recorded events, the reassembled
cross-picoprocess trace trees, and the metrics registry (per-syscall and
per-RPC latency histograms, live-state gauges).

With no PROGRAM, a built-in demo runs: a parent creates a System V message
queue, forks a child that opens the same key and receives, and the parent
sends — a cross-picoprocess msgget/msgsnd/msgrcv exchange whose RPC hops
render as a single trace tree.
`

// traceCmd implements "graphene trace dump".
func traceCmd(args []string) int {
	if len(args) < 1 || args[0] != "dump" {
		fmt.Fprint(os.Stderr, traceUsage)
		return 2
	}
	fs := flag.NewFlagSet("trace dump", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit JSON instead of text")
	manifestPath := fs.String("manifest", "", "manifest file")
	_ = fs.Parse(args[1:])
	rest := fs.Args()

	k, rt, man, err := grapheneHost(*manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphene:", err)
		return 1
	}
	if err := rt.RegisterProgram("/bin/sysvdemo", sysvDemoMain); err != nil {
		fmt.Fprintln(os.Stderr, "graphene:", err)
		return 1
	}
	program := "/bin/sysvdemo"
	argv := []string{program}
	if len(rest) > 0 {
		program = rest[0]
		if !strings.HasPrefix(program, "/") {
			program = "/bin/" + program
		}
		argv = append([]string{program}, rest[1:]...)
	}
	// Gauges sampled at dump time: host memory and the kernel's census
	// (live picoprocesses, streams, stores, segments, recorder memory).
	metrics.Default.RegisterGauge("host.resident_bytes", func() int64 {
		var total int64
		for _, p := range k.Processes() {
			total += int64(p.AS.ResidentBytes())
		}
		return total
	})
	k.RegisterGauges()

	res, err := rt.Launch(man, program, argv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphene:", err)
		return 1
	}
	<-res.Done
	if code := res.ExitCode(); code != 0 {
		fmt.Fprintf(os.Stderr, "graphene: %s exited %d\n", program, code)
	}

	if *jsonOut {
		if err := k.WriteTraceJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "graphene:", err)
			return 1
		}
		fmt.Println(metrics.Default.Snapshot().JSON())
		return 0
	}
	k.WriteTraceText(os.Stdout)
	fmt.Println()
	fmt.Print(metrics.Default.Snapshot().Text())
	return 0
}

// sysvDemoMain is the built-in trace-dump workload: one cross-picoprocess
// System V message-queue exchange. The child opens the queue by key (the
// key lookup RPCs to the leader render as a trace tree), receives the
// parent's message, and exits; the parent waits and removes the queue.
func sysvDemoMain(p api.OS, argv []string) int {
	const key = 0x5157
	qid, err := p.Msgget(key, api.IPCCreat)
	if err != nil {
		return 1
	}
	child, err := p.Fork(func(c api.OS) {
		cqid, err := c.Msgget(key, 0)
		if err != nil {
			c.Exit(11)
		}
		if _, _, err := c.Msgrcv(cqid, 1, nil, 0); err != nil {
			c.Exit(12)
		}
		c.Exit(0)
	})
	if err != nil {
		return 2
	}
	if err := p.Msgsnd(qid, 1, []byte("traced"), 0); err != nil {
		return 3
	}
	res, err := p.Wait(child)
	if err != nil || res.ExitCode != 0 {
		return 4
	}
	if err := p.MsgctlRmid(qid); err != nil {
		return 5
	}
	return 0
}
