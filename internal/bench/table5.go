package bench

import (
	"fmt"
	"strings"
	"time"

	"graphene/internal/api"
	"graphene/internal/metrics"
)

// Table5Result is one application benchmark row across the systems.
type Table5Result struct {
	Workload string
	// Seconds (execution time) or MB/s (throughput) per system.
	Linux      *metrics.Sample
	KVM        *metrics.Sample
	Graphene   *metrics.Sample // with reference monitor
	GrapheneNR *metrics.Sample // without reference monitor, where measured
	// Throughput is true when higher is better (web benchmarks).
	Throughput bool
}

// Table5Scale controls how much work each Table 5 workload performs (1 =
// the default used by cmd/graphene-bench; tests use smaller values).
type Table5Scale struct {
	Iters       int // timing repetitions
	CompileKLoC int // "bzip2"-sized source tree
	HTTPReqs    int // requests per ApacheBench run
	ShellIters  int // iterations of the Unix-utils script
}

// DefaultTable5Scale mirrors the paper's inputs at laptop scale.
func DefaultTable5Scale() Table5Scale {
	return Table5Scale{Iters: 3, CompileKLoC: 5, HTTPReqs: 400, ShellIters: 10}
}

// Table5 reproduces the application benchmarks: gcc/make compilation
// (sequential and -j4), ApacheBench throughput against Apache and
// lighttpd at several concurrency levels, and the Bash workloads.
func Table5(scale Table5Scale) ([]Table5Result, error) {
	var out []Table5Result

	// --- compilation: make (sequential) and make -j4 ---
	for _, cfg := range []struct {
		name  string
		jobs  string
		files int
	}{
		{"make bzip2 (seq)", "1", 13},
		{"make bzip2 -j4", "4", 13},
	} {
		row := Table5Result{Workload: cfg.name}
		content := []byte(strings.Repeat("static int f(int x){return x*31;}\n",
			scale.CompileKLoC*1000/cfg.files))
		runCompile := func(run func(string, ...string) (int, error), seed func(string, []byte) error) func() {
			return func() {
				for i := 0; i < cfg.files; i++ {
					if err := seed(fmt.Sprintf("/tree/src%d.c", i), content); err != nil {
						panic(err)
					}
				}
				if code, err := run("/bin/make", "/tree", cfg.jobs); err != nil || code != 0 {
					panic(fmt.Sprintf("make failed: code=%d err=%v", code, err))
				}
			}
		}
		// Fresh env per system; reuse across idesired iterations.
		n, err := NewNative()
		if err != nil {
			return nil, err
		}
		row.Linux = metrics.Measure(scale.Iters, runCompile(n.Run, seedFS(n)))
		v, err := NewKVM()
		if err != nil {
			return nil, err
		}
		row.KVM = metrics.Measure(scale.Iters, runCompile(v.Run, seedKVM(v)))
		g, err := NewGraphene()
		if err != nil {
			return nil, err
		}
		row.Graphene = metrics.Measure(scale.Iters, runCompile(g.Run, seedG(g)))
		gn, err := NewGrapheneNoRM()
		if err != nil {
			return nil, err
		}
		row.GrapheneNR = metrics.Measure(scale.Iters, runCompile(gn.Run, seedG(gn)))
		out = append(out, row)
	}

	// --- web serving: ApacheBench vs lighttpd and apache ---
	for _, server := range []string{"lighttpd", "apache"} {
		for _, conc := range []int{25, 50, 100} {
			row := Table5Result{
				Workload:   fmt.Sprintf("%s %d conc (MB/s)", server, conc),
				Throughput: true,
			}
			port := 8600
			run := func(launch launcher, seed func(string, []byte) error) float64 {
				port++
				addr := fmt.Sprintf("127.0.0.1:%d", port)
				if err := seed("/docs/file100", []byte(strings.Repeat("x", 100))); err != nil {
					panic(err)
				}
				srvDone, srv, err := launch([]string{"/bin/" + server, addr, "4", "/docs"})
				if err != nil {
					panic(err)
				}
				time.Sleep(30 * time.Millisecond)
				start := time.Now()
				done, _, err := launch([]string{"/bin/ab", addr, fmt.Sprint(conc),
					fmt.Sprint(scale.HTTPReqs), "/file100"})
				if err != nil {
					panic(err)
				}
				<-done
				elapsed := time.Since(start).Seconds()
				// Servers never exit on their own: kill -9 this one so its
				// kernel, and the KVM guest's RAM, can be collected.
				_ = srv.Kill(srv.Getpid(), api.SIGKILL)
				<-srvDone
				// 100-byte body + ~8-byte header per request.
				return float64(scale.HTTPReqs) * 108 / (1 << 20) / elapsed
			}
			collect := func(launch launcher, seed func(string, []byte) error) *metrics.Sample {
				s := &metrics.Sample{}
				for i := 0; i < scale.Iters; i++ {
					s.Add(run(launch, seed))
				}
				return s
			}
			n, err := NewNative()
			if err != nil {
				return nil, err
			}
			row.Linux = collect(launcherN(n), seedFS(n))
			v, err := NewKVM()
			if err != nil {
				return nil, err
			}
			row.KVM = collect(launcherK(v), seedKVM(v))
			g, err := NewGraphene()
			if err != nil {
				return nil, err
			}
			row.Graphene = collect(launcherG(g), seedG(g))
			gn, err := NewGrapheneNoRM()
			if err != nil {
				return nil, err
			}
			row.GrapheneNR = collect(launcherG(gn), seedG(gn))
			out = append(out, row)
		}
	}

	// --- Bash workloads ---
	for _, cfg := range []struct {
		name string
		argv []string
	}{
		{"bash unix utils", []string{"/bin/unixbench", "shell", fmt.Sprint(scale.ShellIters)}},
		{"bash unixbench spawn", []string{"/bin/unixbench", "spawn", fmt.Sprint(scale.ShellIters * 5)}},
	} {
		row := Table5Result{Workload: cfg.name}
		n, err := NewNative()
		if err != nil {
			return nil, err
		}
		row.Linux = metrics.Measure(scale.Iters, mustRun(n.Run, cfg.argv))
		v, err := NewKVM()
		if err != nil {
			return nil, err
		}
		row.KVM = metrics.Measure(scale.Iters, mustRun(v.Run, cfg.argv))
		g, err := NewGraphene()
		if err != nil {
			return nil, err
		}
		row.Graphene = metrics.Measure(scale.Iters, mustRun(g.Run, cfg.argv))
		gn, err := NewGrapheneNoRM()
		if err != nil {
			return nil, err
		}
		row.GrapheneNR = metrics.Measure(scale.Iters, mustRun(gn.Run, cfg.argv))
		out = append(out, row)
	}
	return out, nil
}

func mustRun(run func(string, ...string) (int, error), argv []string) func() {
	return func() {
		code, err := run(argv[0], argv[1:]...)
		if err != nil || code != 0 {
			panic(fmt.Sprintf("%v: code=%d err=%v", argv, code, err))
		}
	}
}

func seedFS(n *NativeEnv) func(string, []byte) error {
	return func(path string, data []byte) error {
		ensureDirs(n.Kernel.FS.MkdirAll, path)
		return n.Kernel.FS.WriteFile(path, data, 0644)
	}
}

func seedKVM(v *KVMEnv) func(string, []byte) error {
	return func(path string, data []byte) error {
		ensureDirs(v.VM.Guest().FS.MkdirAll, path)
		return v.VM.Guest().FS.WriteFile(path, data, 0644)
	}
}

func seedG(g *GrapheneEnv) func(string, []byte) error {
	return func(path string, data []byte) error {
		ensureDirs(g.Kernel.FS.MkdirAll, path)
		return g.Kernel.FS.WriteFile(path, data, 0644)
	}
}

// launcher starts argv[0] on one personality and returns its exit channel
// and root process.
type launcher func(argv []string) (done chan struct{}, root api.OS, err error)

func launcherN(n *NativeEnv) launcher {
	return func(argv []string) (chan struct{}, api.OS, error) {
		res, err := n.Kernel.Launch(argv[0], argv)
		if err != nil {
			return nil, nil, err
		}
		return res.Done, res.Process, nil
	}
}

func launcherK(v *KVMEnv) launcher {
	return func(argv []string) (chan struct{}, api.OS, error) {
		res, err := v.VM.Launch(argv[0], argv)
		if err != nil {
			return nil, nil, err
		}
		return res.Done, res.Process, nil
	}
}

func launcherG(g *GrapheneEnv) launcher {
	return func(argv []string) (chan struct{}, api.OS, error) {
		res, err := g.Runtime.Launch(g.Manifest, argv[0], argv)
		if err != nil {
			return nil, nil, err
		}
		return res.Done, res.Process, nil
	}
}
