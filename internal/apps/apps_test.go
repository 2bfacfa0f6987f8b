package apps

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/baseline/kvm"
	"graphene/internal/baseline/native"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

// env is one personality ready to run the application suite.
type env struct {
	name    string
	launch  func(path string, argv []string) (wait func(t *testing.T) int, err error)
	console func() string // Graphene only; "" elsewhere
	seed    func(path string, data []byte) error
}

// waitFor returns the wait function of a launched root process, and has
// the end of t kill it if it is still running: the web servers never exit
// on their own, and each one left behind keeps its kernel (a KVM guest's
// RAM too) alive for the rest of the test binary. The kill only releases
// memory; it is not under test, so a process that outlives it (a libLinux
// shell killed mid-fork can) is logged and left.
func waitFor(t *testing.T, name string, done chan struct{}, root api.OS, code func() int) func(*testing.T) int {
	t.Cleanup(func() {
		select {
		case <-done:
			return
		default:
		}
		_ = root.Kill(root.Getpid(), api.SIGKILL)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Logf("%s app still running 10 s after SIGKILL; left behind", name)
		}
	})
	return func(t *testing.T) int {
		select {
		case <-done:
			return code()
		case <-time.After(120 * time.Second):
			t.Fatal(name + " app hung")
			return -1
		}
	}
}

func grapheneApps(t *testing.T) env {
	t.Helper()
	k := host.NewKernel()
	m := monitor.New(k)
	rt := liblinux.NewRuntime(k, m)
	if err := RegisterAll(rt.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	man, err := monitor.ParseManifest("apps", "mount / /\nallow_read /\nallow_write /\nnet_listen *:*\nnet_connect *:*\n")
	if err != nil {
		t.Fatal(err)
	}
	return env{
		name: "graphene",
		launch: func(path string, argv []string) (func(*testing.T) int, error) {
			res, err := rt.Launch(man, path, argv)
			if err != nil {
				return nil, err
			}
			return waitFor(t, "graphene", res.Done, res.Process, res.ExitCode), nil
		},
		console: func() string { return k.ConsoleOf().Contents() },
		seed: func(path string, data []byte) error {
			return k.FS.WriteFile(path, data, 0644)
		},
	}
}

func nativeApps(t *testing.T) env {
	t.Helper()
	k := native.NewKernel()
	if err := RegisterAll(k.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	return env{
		name: "native",
		launch: func(path string, argv []string) (func(*testing.T) int, error) {
			res, err := k.Launch(path, argv)
			if err != nil {
				return nil, err
			}
			return waitFor(t, "native", res.Done, res.Process, res.ExitCode), nil
		},
		console: func() string { return "" },
		seed: func(path string, data []byte) error {
			return k.FS.WriteFile(path, data, 0644)
		},
	}
}

func kvmApps(t *testing.T) env {
	t.Helper()
	vm := kvm.StartVM()
	if err := RegisterAll(vm.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	return env{
		name: "kvm",
		launch: func(path string, argv []string) (func(*testing.T) int, error) {
			res, err := vm.Launch(path, argv)
			if err != nil {
				return nil, err
			}
			return waitFor(t, "kvm", res.Done, res.Process, res.ExitCode), nil
		},
		console: func() string { return "" },
		seed: func(path string, data []byte) error {
			return vm.Guest().FS.WriteFile(path, data, 0644)
		},
	}
}

func allEnvs(t *testing.T) []env {
	return []env{grapheneApps(t), nativeApps(t), kvmApps(t)}
}

// runOn runs a shell command on every personality and checks the exit code.
func runShellEverywhere(t *testing.T, script string, wantCode int) {
	t.Helper()
	for _, e := range allEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			wait, err := e.launch("/bin/sh", []string{"/bin/sh", "-c", script})
			if err != nil {
				t.Fatal(err)
			}
			if code := wait(t); code != wantCode {
				t.Fatalf("exit = %d, want %d", code, wantCode)
			}
		})
	}
}

func TestShellEcho(t *testing.T) {
	runShellEverywhere(t, `echo hello world`, 0)
}

func TestShellExitCode(t *testing.T) {
	runShellEverywhere(t, `false`, 1)
	runShellEverywhere(t, `exit 7`, 7)
}

func TestShellRedirectionAndCat(t *testing.T) {
	runShellEverywhere(t, `
mkdir /tmp
echo "line one" > /tmp/f
echo "line two" >> /tmp/f
cat /tmp/f > /tmp/g
cp /tmp/g /tmp/h
wc /tmp/h > /tmp/count
rm /tmp/f /tmp/g /tmp/h
`, 0)
}

func TestShellPipeline(t *testing.T) {
	// seq 100 | wc counts 100 lines; grep finds the needle through a pipe.
	runShellEverywhere(t, `seq 100 | wc > /out`, 0)
	runShellEverywhere(t, `echo "needle in haystack" | grep needle`, 0)
	runShellEverywhere(t, `echo haystack | grep needle`, 1)
}

func TestShellThreeStagePipeline(t *testing.T) {
	runShellEverywhere(t, `seq 50 | grep 1 | wc > /three`, 0)
}

func TestShellBackgroundJobs(t *testing.T) {
	runShellEverywhere(t, `
mkdir /tmp
echo a > /tmp/a &
echo b > /tmp/b &
echo c > /tmp/c &
wait
cat /tmp/a /tmp/b /tmp/c > /tmp/all
`, 0)
}

func TestShellScriptFile(t *testing.T) {
	for _, e := range allEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			if err := e.seed("/script.sh", []byte("echo from script\ntrue\n")); err != nil {
				t.Fatal(err)
			}
			wait, err := e.launch("/bin/sh", []string{"/bin/sh", "/script.sh"})
			if err != nil {
				t.Fatal(err)
			}
			if code := wait(t); code != 0 {
				t.Fatalf("exit = %d", code)
			}
		})
	}
}

func TestShellOutputOnGrapheneConsole(t *testing.T) {
	e := grapheneApps(t)
	wait, err := e.launch("/bin/sh", []string{"/bin/sh", "-c", "echo console-marker"})
	if err != nil {
		t.Fatal(err)
	}
	wait(t)
	if !strings.Contains(e.console(), "console-marker") {
		t.Fatalf("console missing output: %q", e.console())
	}
}

func TestMakeBuildsTree(t *testing.T) {
	for _, e := range allEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			// Seed a small source tree via a bootstrap program? Use sh to
			// invoke a generator: simplest is make's own test entry.
			wait, err := e.launch("/bin/sh", []string{"/bin/sh", "-c",
				"mkdir /src ; genfixture /src ; make /src 4"})
			if err != nil {
				t.Fatal(err)
			}
			_ = wait
			t.Skip("driven by TestMakeDirect below")
		})
	}
}

func TestMakeDirect(t *testing.T) {
	for _, e := range allEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			// Generate the tree with a tiny driver program registered via
			// the shell path: write the sources directly instead.
			content := strings.Repeat("int filler_line;\n", 200)
			for i := 0; i < 6; i++ {
				name := "/srcdir-src" + string(rune('0'+i)) + ".c"
				_ = name
				if err := e.seed("/src"+string(rune('0'+i))+".c", []byte(content)); err != nil {
					t.Fatal(err)
				}
			}
			// Place them under /proj via the shell, then build -j4.
			script := `
mkdir /proj
cp /src0.c /proj/src0.c
cp /src1.c /proj/src1.c
cp /src2.c /proj/src2.c
cp /src3.c /proj/src3.c
cp /src4.c /proj/src4.c
cp /src5.c /proj/src5.c
make /proj 4
`
			wait, err := e.launch("/bin/sh", []string{"/bin/sh", "-c", script})
			if err != nil {
				t.Fatal(err)
			}
			if code := wait(t); code != 0 {
				t.Fatalf("build failed: exit %d", code)
			}
		})
	}
}

func TestUnixbenchPrograms(t *testing.T) {
	for _, sub := range []string{"spawn", "execl", "pipe", "shell"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			for _, e := range allEnvs(t) {
				e := e
				t.Run(e.name, func(t *testing.T) {
					n := "5"
					if sub == "pipe" {
						n = "100"
					}
					wait, err := e.launch("/bin/unixbench", []string{"/bin/unixbench", sub, n})
					if err != nil {
						t.Fatal(err)
					}
					if code := wait(t); code != 0 {
						t.Fatalf("unixbench %s exit = %d", sub, code)
					}
				})
			}
		})
	}
}

// startServerAndBench boots a server program, runs the ab client against
// it, and asserts the throughput line appears.
func startServerAndBench(t *testing.T, e env, server []string, addr string) {
	t.Helper()
	if err := e.seed("/www-index", []byte(strings.Repeat("x", 100))); err != nil {
		t.Fatal(err)
	}
	// docroot is "/", file is /www-index.
	if _, err := e.launch(server[0], server); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // allow bind+workers
	wait, err := e.launch("/bin/ab", []string{"/bin/ab", addr, "4", "64", "/www-index"})
	if err != nil {
		t.Fatal(err)
	}
	if code := wait(t); code != 0 {
		t.Fatalf("ab exit = %d", code)
	}
}

func TestLighttpdServesLoad(t *testing.T) {
	for _, e := range allEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			startServerAndBench(t, e,
				[]string{"/bin/lighttpd", "127.0.0.1:8080", "4", "/"}, "127.0.0.1:8080")
		})
	}
}

func TestApacheServesLoad(t *testing.T) {
	for _, e := range allEnvs(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			startServerAndBench(t, e,
				[]string{"/bin/apache", "127.0.0.1:8081", "4", "/"}, "127.0.0.1:8081")
		})
	}
}

func TestABReportsThroughputLine(t *testing.T) {
	e := grapheneApps(t)
	if err := e.seed("/payload", []byte(strings.Repeat("y", 100))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.launch("/bin/lighttpd", []string{"/bin/lighttpd", "127.0.0.1:9090", "2", "/"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	wait, err := e.launch("/bin/ab", []string{"/bin/ab", "127.0.0.1:9090", "2", "10", "/payload"})
	if err != nil {
		t.Fatal(err)
	}
	if code := wait(t); code != 0 {
		t.Fatalf("ab exit = %d", code)
	}
	out := e.console()
	if !strings.Contains(out, "THROUGHPUT 10 1000 ") {
		t.Fatalf("console = %q", out)
	}
}

func TestCoreutilsErrorPaths(t *testing.T) {
	runShellEverywhere(t, `cat /definitely/missing`, 1)
	runShellEverywhere(t, `rm /definitely/missing`, 1)
	runShellEverywhere(t, `nosuchbinary`, 127)
}

// TestServeStreamsTheWholeFile fetches files around the serve buffer's
// size from /bin/lighttpd and compares every byte of each reply; a missing
// file is a 404. The serve path is the same on every personality, so
// native alone runs it.
func TestServeStreamsTheWholeFile(t *testing.T) {
	k := native.NewKernel()
	if err := RegisterAll(k.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"/missing": []byte("ERR 404\n")}
	for i, n := range []int{0, 1, serveBufLen - 8, serveBufLen, serveBufLen + 1, 3*serveBufLen + 17} {
		body := make([]byte, n)
		for j := range body {
			body[j] = byte(i*31 + j*7)
		}
		path := "/serve" + strconv.Itoa(i)
		if err := k.FS.WriteFile(path, body, 0644); err != nil {
			t.Fatal(err)
		}
		want[path] = append([]byte("OK "+strconv.Itoa(n)+"\n"), body...)
	}
	got := make(map[string][]byte)
	if err := k.RegisterProgram("/bin/serve-client", func(p api.OS, _ []string) int {
		for path := range want {
			fd, err := p.Connect("127.0.0.1:8097")
			if err != nil {
				return 1
			}
			if writeAll(p, fd, []byte("GET "+path+"\n")) != nil {
				return 2
			}
			reply, err := readAll(p, fd)
			_ = p.Close(fd)
			if err != nil {
				return 3
			}
			got[path] = reply
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := k.Launch("/bin/lighttpd", []string{"/bin/lighttpd", "127.0.0.1:8097", "1", "/"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "native", srv.Done, srv.Process, srv.ExitCode)
	time.Sleep(20 * time.Millisecond) // let the server bind
	res, err := k.Launch("/bin/serve-client", []string{"/bin/serve-client"})
	if err != nil {
		t.Fatal(err)
	}
	if code := waitFor(t, "native", res.Done, res.Process, res.ExitCode)(t); code != 0 {
		t.Fatalf("client exit = %d", code)
	}
	for path, w := range want {
		if !bytes.Equal(got[path], w) {
			t.Errorf("%s: got %d bytes, want %d (%q...)", path, len(got[path]), len(w), w[:min(len(w), 12)])
		}
	}
}
