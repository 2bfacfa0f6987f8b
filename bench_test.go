// Package graphene_test holds the testing.B benchmarks that regenerate
// the paper's evaluation — one benchmark (family) per table and figure,
// plus ablation benchmarks for the design choices DESIGN.md calls out.
// Run them with:
//
//	go test -bench=. -benchmem
//
// cmd/graphene-bench produces the full formatted tables; these benchmarks
// give per-operation numbers under the standard Go tooling.
package graphene_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/baseline/kvm"
	"graphene/internal/bench"
	"graphene/internal/cve"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/liblinux"
)

// ============================================================
// Table 4: startup, checkpoint, resume
// ============================================================

func BenchmarkTable4StartupLinux(b *testing.B) {
	env, err := bench.NewNative()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run("/bin/true"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4StartupGraphene(b *testing.B) {
	env, err := bench.NewGraphene()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run("/bin/true"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4StartupKVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := bench.NewKVM()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.Run("/bin/true"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4CheckpointGraphene(b *testing.B) {
	env, err := bench.NewGraphene()
	if err != nil {
		b.Fatal(err)
	}
	prog := func(p api.OS, argv []string) int {
		brk0, _ := p.Brk(0)
		p.Brk(brk0 + 4<<20)
		for off := uint64(0); off < 4<<20; off += 48 << 10 {
			_ = p.MemWrite(brk0+off, []byte{1})
		}
		for {
			time.Sleep(time.Millisecond)
			p.SignalsDrain()
		}
	}
	if err := env.Runtime.RegisterProgram("/bin/parked", prog); err != nil {
		b.Fatal(err)
	}
	res, err := env.Launch("/bin/parked", nil)
	if err != nil {
		b.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		blob, err := res.Process.CheckpointToBytes()
		if err != nil {
			b.Fatal(err)
		}
		size = len(blob)
	}
	b.ReportMetric(float64(size), "ckpt-bytes")
}

func BenchmarkTable4CheckpointKVM(b *testing.B) {
	vm := kvm.StartVM()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		size = len(vm.Checkpoint())
	}
	b.ReportMetric(float64(size), "ckpt-bytes")
}

// ============================================================
// Figure 4: memory footprint (reported as a metric, not time)
// ============================================================

func BenchmarkFig4FootprintGraphene(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := bench.NewGraphene()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(measureServerFootprint(b, func(argv []string) (chan struct{}, error) {
			res, err := env.Launch(argv[0], argv[1:])
			if err != nil {
				return nil, err
			}
			return res.Done, nil
		}, env.ResidentBytes, env.Kernel.FS.MkdirAll, env.Kernel.FS.WriteFile), "resident-bytes")
	}
}

func BenchmarkFig4FootprintKVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := bench.NewKVM()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(measureServerFootprint(b, func(argv []string) (chan struct{}, error) {
			res, err := env.Launch(argv[0], argv[1:])
			if err != nil {
				return nil, err
			}
			return res.Done, nil
		}, env.ResidentBytes, env.VM.Guest().FS.MkdirAll, env.VM.Guest().FS.WriteFile), "resident-bytes")
	}
}

// measureServerFootprint boots the 4-thread lighttpd workload, measures
// the resident footprint while it serves, then shuts it down.
func measureServerFootprint(b *testing.B, launch func(argv []string) (chan struct{}, error),
	resident func() uint64,
	mkdirAll func(string, api.FileMode) error, writeFile func(string, []byte, api.FileMode) error) float64 {
	if err := mkdirAll("/www", 0755); err != nil && !api.Is(err, api.EEXIST) {
		b.Fatal(err)
	}
	if err := writeFile("/www/index", []byte(strings.Repeat("x", 100)), 0644); err != nil {
		b.Fatal(err)
	}
	done, err := launch([]string{"/bin/lighttpd", "127.0.0.1:8700", "4", "/www"})
	if err != nil {
		b.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	footprint := float64(resident())
	// Quit the server and reap it.
	quitDone, err := launch([]string{"/bin/sh", "-c", "true"})
	if err == nil {
		<-quitDone
	}
	abDone, err := launch([]string{"/bin/ab", "127.0.0.1:8700", "1", "1", "/__quit"})
	if err == nil {
		<-abDone
	}
	<-done
	return footprint
}

// ============================================================
// Table 5: application benchmarks
// ============================================================

func benchCompile(b *testing.B, mk func() (run func(string, ...string) (int, error), seed func(string, []byte) error, err error), jobs string) {
	run, seed, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	content := []byte(strings.Repeat("static int f(int x){return x*31;}\n", 300))
	for i := 0; i < 13; i++ {
		if err := seed(fmt.Sprintf("/tree/src%d.c", i), content); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, err := run("/bin/make", "/tree", jobs); err != nil || code != 0 {
			b.Fatalf("make: code=%d err=%v", code, err)
		}
	}
}

func BenchmarkTable5MakeLinux(b *testing.B) {
	benchCompile(b, func() (func(string, ...string) (int, error), func(string, []byte) error, error) {
		env, err := bench.NewNative()
		if err != nil {
			return nil, nil, err
		}
		return env.Run, seederNative(env), nil
	}, "4")
}

func BenchmarkTable5MakeGraphene(b *testing.B) {
	benchCompile(b, func() (func(string, ...string) (int, error), func(string, []byte) error, error) {
		env, err := bench.NewGraphene()
		if err != nil {
			return nil, nil, err
		}
		return env.Run, seederGraphene(env), nil
	}, "4")
}

func BenchmarkTable5ShellLinux(b *testing.B) {
	env, err := bench.NewNative()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, err := env.Run("/bin/unixbench", "shell", "1"); err != nil || code != 0 {
			b.Fatalf("code=%d err=%v", code, err)
		}
	}
}

func BenchmarkTable5ShellGraphene(b *testing.B) {
	env, err := bench.NewGraphene()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, err := env.Run("/bin/unixbench", "shell", "1"); err != nil || code != 0 {
			b.Fatalf("code=%d err=%v", code, err)
		}
	}
}

func seederNative(env *bench.NativeEnv) func(string, []byte) error {
	return func(path string, data []byte) error {
		mkParents(env.Kernel.FS, path)
		return env.Kernel.FS.WriteFile(path, data, 0644)
	}
}

func seederGraphene(env *bench.GrapheneEnv) func(string, []byte) error {
	return func(path string, data []byte) error {
		mkParents(env.Kernel.FS, path)
		return env.Kernel.FS.WriteFile(path, data, 0644)
	}
}

func mkParents(fs *host.FileSystem, path string) {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		_ = fs.MkdirAll(path[:i], 0755)
	}
}

// ============================================================
// Table 6: LMbench-style microbenchmarks
// ============================================================

// benchGuestOp measures one guest operation per iteration inside a parked
// Graphene or native process.
func benchGuestOp(b *testing.B, graphene bool, setup func(p api.OS) func() bool) {
	op, stop := startGuestOp(b, graphene, setup)
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !op() {
			b.Fatal("guest op failed")
		}
	}
}

// startGuestOp launches a Graphene or native process that runs setup and
// parks, and returns the operation setup built, callable from the test's
// goroutine, and stop, which lets the process exit.
func startGuestOp(tb testing.TB, graphene bool, setup func(p api.OS) func() bool) (op func() bool, stop func()) {
	opCh := make(chan func() bool, 1)
	doneCh := make(chan struct{})
	prog := func(p api.OS, argv []string) int {
		op := setup(p)
		opCh <- op
		<-doneCh
		return 0
	}
	var launch func() error
	if graphene {
		env, err := bench.NewGraphene()
		if err != nil {
			tb.Fatal(err)
		}
		if err := env.Runtime.RegisterProgram("/bin/op", prog); err != nil {
			tb.Fatal(err)
		}
		launch = func() error { _, err := env.Launch("/bin/op", nil); return err }
	} else {
		env, err := bench.NewNative()
		if err != nil {
			tb.Fatal(err)
		}
		if err := env.Kernel.RegisterProgram("/bin/op", prog); err != nil {
			tb.Fatal(err)
		}
		launch = func() error { _, err := env.Launch("/bin/op", nil); return err }
	}
	if err := launch(); err != nil {
		tb.Fatal(err)
	}
	return <-opCh, func() { close(doneCh) }
}

func BenchmarkTable6SyscallLinux(b *testing.B) {
	benchGuestOp(b, false, func(p api.OS) func() bool {
		return func() bool { p.Getpid(); return true }
	})
}

func BenchmarkTable6SyscallGraphene(b *testing.B) {
	benchGuestOp(b, true, func(p api.OS) func() bool {
		return func() bool { p.Getpid(); return true }
	})
}

func BenchmarkTable6OpenCloseLinux(b *testing.B) {
	benchGuestOp(b, false, openCloseOp)
}

func BenchmarkTable6OpenCloseGraphene(b *testing.B) {
	benchGuestOp(b, true, openCloseOp)
}

func openCloseOp(p api.OS) func() bool {
	fd, err := p.Open("/f", api.OCreate|api.OWrOnly, 0644)
	if err != nil {
		return func() bool { return false }
	}
	p.Close(fd)
	return func() bool {
		fd, err := p.Open("/f", api.ORdOnly, 0)
		if err != nil {
			return false
		}
		return p.Close(fd) == nil
	}
}

func BenchmarkTable6Sigusr1Linux(b *testing.B) {
	benchGuestOp(b, false, sigusr1Op)
}

func BenchmarkTable6Sigusr1Graphene(b *testing.B) {
	benchGuestOp(b, true, sigusr1Op)
}

func sigusr1Op(p api.OS) func() bool {
	if err := p.Sigaction(api.SIGUSR1, func(api.Signal) {}, ""); err != nil {
		return func() bool { return false }
	}
	self := p.Getpid()
	return func() bool {
		if err := p.Kill(self, api.SIGUSR1); err != nil {
			return false
		}
		p.SignalsDrain()
		return true
	}
}

func BenchmarkTable6ForkExitLinux(b *testing.B) {
	benchGuestOp(b, false, forkExitOp)
}

func BenchmarkTable6ForkExitGraphene(b *testing.B) {
	benchGuestOp(b, true, forkExitOp)
}

func forkExitOp(p api.OS) func() bool {
	return func() bool {
		pid, err := p.Fork(func(c api.OS) { c.Exit(0) })
		if err != nil {
			return false
		}
		_, err = p.Wait(pid)
		return err == nil
	}
}

func BenchmarkTable6ForkExecLinux(b *testing.B) {
	benchGuestOp(b, false, forkExecOp)
}

func BenchmarkTable6ForkExecGraphene(b *testing.B) {
	benchGuestOp(b, true, forkExecOp)
}

func forkExecOp(p api.OS) func() bool {
	return func() bool {
		pid, err := p.Spawn("/bin/true", []string{"/bin/true"})
		if err != nil {
			return false
		}
		_, err = p.Wait(pid)
		return err == nil
	}
}

// ============================================================
// Table 7: System V message queues
// ============================================================

func BenchmarkTable7MsgLocalGraphene(b *testing.B) {
	benchGuestOp(b, true, func(p api.OS) func() bool {
		id, err := p.Msgget(1234, api.IPCCreat)
		if err != nil {
			return func() bool { return false }
		}
		payload := []byte("0123456789abcdef")
		return func() bool {
			if p.Msgsnd(id, 1, payload, 0) != nil {
				return false
			}
			_, _, err := p.Msgrcv(id, 0, nil, 0)
			return err == nil
		}
	})
}

func BenchmarkTable7MsgLocalLinux(b *testing.B) {
	benchGuestOp(b, false, func(p api.OS) func() bool {
		id, err := p.Msgget(1234, api.IPCCreat)
		if err != nil {
			return func() bool { return false }
		}
		payload := []byte("0123456789abcdef")
		return func() bool {
			if p.Msgsnd(id, 1, payload, 0) != nil {
				return false
			}
			_, _, err := p.Msgrcv(id, 0, nil, 0)
			return err == nil
		}
	})
}

// remoteQueueOp builds a send+recv op against a queue owned by a child
// process (the RPC path; migration disabled for the measurement).
func remoteQueueOp(p api.OS) func() bool {
	ready := make(chan int, 1)
	_, err := p.Fork(func(c api.OS) {
		id, err := c.Msgget(4321, api.IPCCreat)
		if err != nil {
			c.Exit(1)
		}
		ready <- id
		for {
			time.Sleep(time.Millisecond)
			c.SignalsDrain()
		}
	})
	if err != nil {
		return func() bool { return false }
	}
	id := <-ready
	payload := []byte("0123456789abcdef")
	return func() bool {
		if p.Msgsnd(id, 1, payload, 0) != nil {
			return false
		}
		_, _, err := p.Msgrcv(id, 1, nil, 0)
		return err == nil
	}
}

func BenchmarkTable7MsgRemoteGraphene(b *testing.B) {
	ipc.SetMigrationEnabled(false)
	defer ipc.SetMigrationEnabled(true)
	benchGuestOp(b, true, remoteQueueOp)
}

// ============================================================
// Figure 5: RPC vs pipe ping-pong
// ============================================================

func BenchmarkFig5PipePingPong(b *testing.B) {
	a, c := host.NewStreamPair("bench", 1, 2)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a.Close()
}

func BenchmarkFig5RPCPingPong(b *testing.B) {
	benchGuestOp(b, true, fig5Ping)
}

// fig5Ping forks a parked partner and returns one helper-to-helper ping
// to it over the cached point-to-point stream.
func fig5Ping(p api.OS) func() bool {
	hold := make(chan struct{})
	partner, err := p.Fork(func(c api.OS) {
		<-hold
		c.Exit(0)
	})
	if err != nil {
		return func() bool { return false }
	}
	lp := p.(*liblinux.Process)
	addr, err := lp.Helper().ResolvePID(int64(partner))
	if err != nil {
		return func() bool { return false }
	}
	return func() bool { return lp.Helper().Ping(addr) == nil }
}

// BenchmarkRemoteSignalGraphene signals another picoprocess over the
// helper's cached point-to-point stream (§4.3's ~55 µs cached signal).
func BenchmarkRemoteSignalGraphene(b *testing.B) {
	benchGuestOp(b, true, signalRemoteOp)
}

func signalRemoteOp(p api.OS) func() bool {
	ready := make(chan struct{})
	pid, err := p.Fork(func(c api.OS) {
		c.Sigaction(api.SIGUSR1, func(api.Signal) {}, "")
		close(ready)
		for {
			time.Sleep(time.Millisecond)
			c.SignalsDrain()
		}
	})
	if err != nil {
		return func() bool { return false }
	}
	<-ready
	return func() bool { return p.Kill(pid, api.SIGUSR1) == nil }
}

// ============================================================
// Table 8: CVE analysis (throughput of the analyzer)
// ============================================================

func BenchmarkTable8Analysis(b *testing.B) {
	ds := cve.Dataset()
	pol := cve.DefaultPolicy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, total := cve.Analyze(ds, pol)
		if total.Prevented != 147 {
			b.Fatalf("prevented = %d", total.Prevented)
		}
	}
}

// ============================================================
// Ablations (DESIGN.md): each optimization on vs off
// ============================================================

// BenchmarkAblationMigrationOn vs Off: consumer migration turns remote
// receives into local calls (the 10x of §4.3).
func BenchmarkAblationMigrationOn(b *testing.B) {
	ipc.SetMigrationEnabled(true)
	benchGuestOp(b, true, remoteQueueOp)
}

func BenchmarkAblationMigrationOff(b *testing.B) {
	ipc.SetMigrationEnabled(false)
	defer ipc.SetMigrationEnabled(true)
	benchGuestOp(b, true, remoteQueueOp)
}

// BenchmarkAblationBulkIPCFork vs StreamFork is structural: fork always
// uses bulk IPC in this implementation; the stream alternative is modeled
// by checkpoint-to-bytes + restore, measured here for comparison.
func BenchmarkAblationForkViaBulkIPC(b *testing.B) {
	benchGuestOp(b, true, func(p api.OS) func() bool {
		// Touch a 1 MB heap so the fork has pages to move.
		brk0, _ := p.Brk(0)
		p.Brk(brk0 + 1<<20)
		for off := uint64(0); off < 1<<20; off += host.PageSize {
			_ = p.MemWrite(brk0+off, []byte{1})
		}
		return forkExitOp(p)
	})
}
