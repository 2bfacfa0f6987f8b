package bench

import (
	"fmt"
	"strconv"
	"strings"

	"graphene/internal/api"
	"graphene/internal/ipc"
	"graphene/internal/metrics"
)

// Table7Result is one System V message queue microbenchmark cell set.
type Table7Result struct {
	Op       string          // msgget(create), msgget(lookup), msgsnd, msgrcv
	Mode     string          // "in process", "inter process", "persistent"
	Linux    *metrics.Sample // ns/op; nil where the paper has no column
	Graphene *metrics.Sample
}

// sysvBenchMain is the in-guest driver: it performs one msgq operation n
// times and writes ns/op to /sysvresult.
//
//	sysvbench <op> <mode> <n> [seq]
//
// seq salts the key range of the create cells so repeated samples in the
// same sandbox create fresh queues instead of silently degrading into
// lookups of the previous sample's keys.
func sysvBenchMain(p api.OS, argv []string) int {
	if len(argv) < 4 {
		return 2
	}
	op, mode := argv[1], argv[2]
	n, _ := strconv.Atoi(argv[3])
	if n <= 0 {
		n = 10
	}
	seq := 0
	if len(argv) > 4 {
		seq, _ = strconv.Atoi(argv[4])
	}
	payload := []byte("0123456789abcdef") // 16-byte messages

	const baseKey = 7000
	createBase := 10000 + seq*1000000
	if mode == "inter" {
		createBase = 20000000 + seq*1000000
	}

	// Inter-process cells: the parent (the sandbox leader) owns the queue;
	// a forked child performs the operations remotely and reports, like
	// the paper's two concurrent picoprocesses. The paper's one-way remote
	// send is the kernel-bypass ring here, so the msgsnd cell warms it up
	// and its timed region runs on the shared-memory ring.
	if mode == "inter" {
		prefill := 0
		if op == "msgrcv" {
			prefill = n + 8
		}
		if op != "msgget-create" {
			id, err := p.Msgget(baseKey, api.IPCCreat)
			if err != nil {
				return 1
			}
			for i := 0; i < prefill; i++ {
				if err := p.Msgsnd(id, 1, payload, 0); err != nil {
					return 1
				}
			}
		}
		pid, err := p.Fork(func(c api.OS) {
			var iter func(i int) bool
			switch op {
			case "msgget-create":
				iter = func(i int) bool {
					_, err := c.Msgget(createBase+i, api.IPCCreat)
					return err == nil
				}
			case "msgget-lookup":
				iter = func(i int) bool {
					_, err := c.Msgget(baseKey, 0)
					return err == nil
				}
			case "msgsnd":
				id, err := c.Msgget(baseKey, 0)
				if err != nil {
					c.Exit(1)
				}
				// Cross the ring-attach threshold untimed (the eighth send
				// makes the grant handshake), then give the owner's drainer
				// a moment to park on the doorbell (no guest sleep syscall;
				// spin on the clock).
				for i := 0; i < 16; i++ {
					if err := c.Msgsnd(id, 1, payload, 0); err != nil {
						c.Exit(1)
					}
				}
				settle, _ := c.Gettimeofday()
				for {
					now, _ := c.Gettimeofday()
					if now-settle > 2000 { // 2ms
						break
					}
				}
				iter = func(i int) bool { return c.Msgsnd(id, 1, payload, 0) == nil }
			case "msgrcv":
				id, err := c.Msgget(baseKey, 0)
				if err != nil {
					c.Exit(1)
				}
				iter = func(i int) bool {
					_, _, err := c.Msgrcv(id, 1, nil, 0)
					return err == nil
				}
			default:
				c.Exit(2)
			}
			start, _ := c.Gettimeofday()
			for i := 0; i < n; i++ {
				if !iter(i) {
					c.Exit(1)
				}
			}
			end, _ := c.Gettimeofday()
			nsPerOp := (end - start) * 1000 / int64(n)
			if err := writeFileAll(c, "/sysvresult", []byte(strconv.FormatInt(nsPerOp, 10))); err != nil {
				c.Exit(1)
			}
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		res, err := p.Wait(pid)
		if err != nil {
			return 1
		}
		return res.ExitCode
	}

	var iter func(i int) bool
	switch op + "/" + mode {
	case "msgget-create/in":
		iter = func(i int) bool {
			_, err := p.Msgget(createBase+i, api.IPCCreat)
			return err == nil
		}
	case "msgget-lookup/in":
		if _, err := p.Msgget(baseKey, api.IPCCreat); err != nil {
			return 1
		}
		iter = func(i int) bool {
			_, err := p.Msgget(baseKey, 0)
			return err == nil
		}
	case "msgsnd/in":
		id, err := p.Msgget(baseKey, api.IPCCreat)
		if err != nil {
			return 1
		}
		iter = func(i int) bool { return p.Msgsnd(id, 1, payload, 0) == nil }
	case "msgrcv/in":
		id, err := p.Msgget(baseKey, api.IPCCreat)
		if err != nil {
			return 1
		}
		for i := 0; i < n; i++ {
			if err := p.Msgsnd(id, 1, payload, 0); err != nil {
				return 1
			}
		}
		iter = func(i int) bool {
			_, _, err := p.Msgrcv(id, 0, nil, 0)
			return err == nil
		}

	case "msgget-lookup/persist", "msgsnd/persist", "msgrcv/persist":
		// Non-concurrent sharing: the owner creates, fills, and exits;
		// the survivor adopts from the persisted file (§4.2).
		pid, err := p.Fork(func(c api.OS) {
			id, err := c.Msgget(baseKey, api.IPCCreat)
			if err != nil {
				c.Exit(1)
			}
			count := n + 8
			if op != "msgrcv" {
				count = 1
			}
			for i := 0; i < count; i++ {
				if err := c.Msgsnd(id, 1, payload, 0); err != nil {
					c.Exit(1)
				}
			}
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
			return 1
		}
		id, err := p.Msgget(baseKey, 0)
		if err != nil {
			return 1
		}
		switch op {
		case "msgget-lookup":
			iter = func(i int) bool {
				_, err := p.Msgget(baseKey, 0)
				return err == nil
			}
		case "msgsnd":
			iter = func(i int) bool { return p.Msgsnd(id, 1, payload, 0) == nil }
		case "msgrcv":
			iter = func(i int) bool {
				_, _, err := p.Msgrcv(id, 1, nil, 0)
				return err == nil
			}
		}
	default:
		return 2
	}

	start, _ := p.Gettimeofday()
	for i := 0; i < n; i++ {
		if !iter(i) {
			return 1
		}
	}
	end, _ := p.Gettimeofday()
	nsPerOp := (end - start) * 1000 / int64(n)
	if err := writeFileAll(p, "/sysvresult", []byte(strconv.FormatInt(nsPerOp, 10))); err != nil {
		return 1
	}
	return 0
}

// table7Cell runs one (op, mode) cell on one personality.
func table7Cell(run func(...string) (int, error), read func() (int64, error),
	op, mode string, n, iters int) (*metrics.Sample, error) {
	s := &metrics.Sample{}
	for i := 0; i < iters; i++ {
		code, err := run(op, mode, strconv.Itoa(n), strconv.Itoa(i))
		if err != nil || code != 0 {
			return nil, fmt.Errorf("sysvbench %s/%s: code=%d err=%v", op, mode, code, err)
		}
		ns, err := read()
		if err != nil {
			return nil, err
		}
		s.Add(float64(ns))
	}
	return s, nil
}

// Table7 reproduces the System V message queue microbenchmarks. Ownership
// migration is disabled during the inter-process cells so the remote path
// is what gets measured, as in the paper's Table 7; the inter-process
// msgsnd cell runs on the warmed kernel-bypass ring, the paper's one-way
// remote send. The ablation benchmarks measure migration's 10x effect
// separately.
func Table7(n, iters int) ([]Table7Result, error) {
	if n <= 0 {
		n = 500
	}
	if iters <= 0 {
		iters = 3
	}
	ops := []string{"msgget-create", "msgget-lookup", "msgsnd", "msgrcv"}
	modes := []string{"in", "inter", "persist"}

	var out []Table7Result
	for _, op := range ops {
		for _, mode := range modes {
			if mode == "persist" && op == "msgget-create" {
				continue // the queue pre-exists by definition
			}
			row, err := table7Row(op, mode, n, iters)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// table7Row runs one (op, mode) row across the measured systems, scoping
// the migration override to the row.
func table7Row(op, mode string, n, iters int) (Table7Result, error) {
	row := Table7Result{Op: op, Mode: modeLabel(mode)}

	if mode == "inter" {
		ipc.SetMigrationEnabled(false)
		defer ipc.SetMigrationEnabled(true)
	}

	// Graphene.
	g, err := NewGraphene()
	if err != nil {
		return row, err
	}
	if err := g.Runtime.RegisterProgram("/bin/sysvbench", sysvBenchMain); err != nil {
		return row, err
	}
	row.Graphene, err = table7Cell(
		func(args ...string) (int, error) { return g.Run("/bin/sysvbench", args...) },
		func() (int64, error) { return readNS(g.Kernel.FS.ReadFile, "/sysvresult") },
		op, mode, n, iters)
	if err != nil {
		return row, err
	}

	// Linux (no persistent column: queues live in kernel memory).
	if mode != "persist" {
		nv, err := NewNative()
		if err != nil {
			return row, err
		}
		if err := nv.Kernel.RegisterProgram("/bin/sysvbench", sysvBenchMain); err != nil {
			return row, err
		}
		row.Linux, err = table7Cell(
			func(args ...string) (int, error) { return nv.Run("/bin/sysvbench", args...) },
			func() (int64, error) { return readNS(nv.Kernel.FS.ReadFile, "/sysvresult") },
			op, mode, n, iters)
		if err != nil {
			return row, err
		}
	}
	return row, nil
}

func modeLabel(mode string) string {
	switch mode {
	case "in":
		return "in process"
	case "inter":
		return "inter process"
	default:
		return "persistent"
	}
}

func readNS(readFile func(string) ([]byte, error), path string) (int64, error) {
	data, err := readFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
}
