package bench

import (
	"fmt"
	"strings"
	"time"

	"graphene/internal/api"
)

// Fig4Result is one bar of Figure 4: a workload's peak memory footprint
// on one system.
type Fig4Result struct {
	Workload string
	System   string
	Bytes    uint64
}

// fig4Workload describes one of Figure 4's application configurations.
type fig4Workload struct {
	name  string
	setup func(seed func(path string, data []byte) error) error
	argv  []string // program + args
	// server workloads need a driver once the server is up.
	drive []string
}

func fig4Workloads() []fig4Workload {
	return []fig4Workload{
		{
			name: "make -j4 libLinux",
			setup: func(seed func(string, []byte) error) error {
				content := []byte(strings.Repeat("static int f(int x) { return x * 31; }\n", 400))
				for i := 0; i < 78; i++ {
					if err := seed(fmt.Sprintf("/liblinux/src%d.c", i), content); err != nil {
						return err
					}
				}
				return nil
			},
			argv: []string{"/bin/make", "/liblinux", "4"},
		},
		{
			name: "lighttpd 4-thread",
			setup: func(seed func(string, []byte) error) error {
				return seed("/www/index", []byte(strings.Repeat("b", 100)))
			},
			argv:  []string{"/bin/lighttpd", "127.0.0.1:8480", "4", "/www"},
			drive: []string{"/bin/ab", "127.0.0.1:8480", "4", "200", "/index"},
		},
		{
			name: "apache 4-proc",
			setup: func(seed func(string, []byte) error) error {
				return seed("/www/index", []byte(strings.Repeat("b", 100)))
			},
			argv:  []string{"/bin/apache", "127.0.0.1:8481", "4", "/www"},
			drive: []string{"/bin/ab", "127.0.0.1:8481", "4", "200", "/index"},
		},
		{
			name: "bash unixbench",
			argv: []string{"/bin/unixbench", "shell", "6"},
		},
	}
}

// footprintEnv abstracts what Fig4 needs from a personality.
type footprintEnv struct {
	system   string
	seed     func(path string, data []byte) error
	launch   launcher
	resident func() uint64
}

// Fig4 measures the peak memory footprint of the paper's four workloads
// on all three systems.
func Fig4() ([]Fig4Result, error) {
	var out []Fig4Result
	for _, w := range fig4Workloads() {
		envs, err := fig4Envs()
		if err != nil {
			return nil, err
		}
		for _, e := range envs {
			if w.setup != nil {
				if err := w.setup(e.seed); err != nil {
					return nil, fmt.Errorf("%s setup on %s: %w", w.name, e.system, err)
				}
			}
			started, stop := make(chan struct{}), make(chan struct{})
			peakCh := make(chan uint64, 1)
			go func() { peakCh <- sampleMax(started, stop, e.resident) }()
			<-started
			done, root, err := e.launch(w.argv)
			if err != nil {
				close(stop)
				return nil, fmt.Errorf("%s on %s: %w", w.name, e.system, err)
			}
			// The launch returns with the root's image mapped and its
			// thread just started, so a sample now reads at least the root
			// unless the whole workload ran before this goroutine resumed:
			// a workload that ends inside one of the sampler's gaps (native
			// bash unixbench lasts about a millisecond) no longer reads 0.
			launched := e.resident()
			if w.drive != nil {
				time.Sleep(30 * time.Millisecond)
				driveDone, _, err := e.launch(w.drive)
				if err != nil {
					return nil, err
				}
				<-driveDone
				close(stop)
				// Servers never exit on their own: kill -9 this one so its
				// kernel, and the KVM guest's RAM, can be collected.
				_ = root.Kill(root.Getpid(), api.SIGKILL)
				<-done
			} else {
				<-done
				close(stop)
			}
			out = append(out, Fig4Result{Workload: w.name, System: e.system, Bytes: max(launched, <-peakCh)})
		}
	}
	return out, nil
}

// fig4Envs builds fresh personalities (fresh per workload so footprints
// do not accumulate).
func fig4Envs() ([]footprintEnv, error) {
	g, err := NewGraphene()
	if err != nil {
		return nil, err
	}
	n, err := NewNative()
	if err != nil {
		return nil, err
	}
	v, err := NewKVM()
	if err != nil {
		return nil, err
	}
	envs := []footprintEnv{
		{system: "Linux", seed: seedFS(n), launch: launcherN(n), resident: n.ResidentBytes},
		{system: "Graphene", seed: seedG(g), launch: launcherG(g), resident: g.ResidentBytes},
		{system: "KVM", seed: seedKVM(v), launch: launcherK(v), resident: v.ResidentBytes},
	}
	return envs, nil
}

func ensureDirs(mkdirAll func(string, api.FileMode) error, path string) {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		_ = mkdirAll(path[:i], 0755)
	}
}
