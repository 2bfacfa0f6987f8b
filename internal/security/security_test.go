package security

import (
	"sync/atomic"
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

func TestIsolationExperimentsAllBlocked(t *testing.T) {
	results, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("experiments = %d, want 4", len(results))
	}
	for _, r := range results {
		if !r.Blocked {
			t.Errorf("attack NOT blocked: %s (%s)", r.Name, r.Detail)
		}
	}
}

func TestSyscallSurfaceUnder15Percent(t *testing.T) {
	allowed, total := SyscallSurface()
	pct := 100 * float64(allowed) / float64(total)
	if pct >= 15 {
		t.Fatalf("syscall surface %.1f%%, paper requires <15%%", pct)
	}
}

// TestSandboxedWorkerCannotReadOtherUsers reproduces the mod_auth_basic
// experiment (§6.6 "New Opportunities"): after authentication, a worker
// calls sandbox_create restricted to one user's data and can no longer
// read other users' files nor coordinate with its old sandbox.
func TestSandboxedWorkerCannotReadOtherUsers(t *testing.T) {
	k := host.NewKernel()
	m := monitor.New(k)
	rt := liblinux.NewRuntime(k, m)
	k.FS.MkdirAll("/users/alice", 0755)
	k.FS.MkdirAll("/users/bob", 0755)
	k.FS.WriteFile("/users/alice/inbox", []byte("alice mail"), 0600)
	k.FS.WriteFile("/users/bob/inbox", []byte("bob mail"), 0600)

	prog := func(p api.OS, argv []string) int {
		// Pre-auth: the server can read both users (its full view).
		if _, err := p.Open("/users/bob/inbox", api.ORdOnly, 0); err != nil {
			return 1
		}
		// Worker authenticates alice and drops into her sandbox.
		sc := p.(api.SandboxCreator)
		if err := sc.SandboxCreate([]string{"/users/alice", "/bin"}); err != nil {
			return 2
		}
		if _, err := p.Open("/users/alice/inbox", api.ORdOnly, 0); err != nil {
			return 3 // lost legitimate access
		}
		if _, err := p.Open("/users/bob/inbox", api.ORdOnly, 0); api.ToErrno(err) != api.EACCES {
			return 4 // still reads bob!
		}
		return 0
	}
	if err := rt.RegisterProgram("/bin/worker", prog); err != nil {
		t.Fatal(err)
	}
	man, err := monitor.ParseManifest("httpd", "mount / /\nallow_read /bin\nallow_read /users\nallow_write /users\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/worker", []string{"/bin/worker"})
	if err != nil {
		t.Fatal(err)
	}
	<-res.Done
	if res.ExitCode() != 0 {
		t.Fatalf("worker sandboxing failed at step %d", res.ExitCode())
	}
}

// TestSandboxSplitSeversCoordination verifies that after sandbox_create
// the detached process cannot signal its former sandbox-mates (§3), while
// its parent still reaps it as Linux would: wait(2) reads the exit code,
// and one SIGCHLD arrives.
func TestSandboxSplitSeversCoordination(t *testing.T) {
	k := host.NewKernel()
	m := monitor.New(k)
	rt := liblinux.NewRuntime(k, m)

	const splitExit = 42
	prog := func(p api.OS, argv []string) int {
		var chld atomic.Int64
		if err := p.Sigaction(api.SIGCHLD, func(api.Signal) { chld.Add(1) }, ""); err != nil {
			return 3
		}
		childPID, err := p.Fork(func(c api.OS) {
			// The child detaches into its own sandbox, then tries to
			// signal its old parent.
			sc := c.(api.SandboxCreator)
			if err := sc.SandboxCreate([]string{"/bin"}); err != nil {
				c.Exit(101)
			}
			if err := c.Kill(c.Getppid(), api.SIGKILL); err == nil {
				c.Exit(102) // cross-sandbox signal succeeded!
			}
			c.Exit(splitExit)
		})
		if err != nil {
			return 1
		}
		res, err := p.Wait(childPID)
		if err != nil {
			return 2
		}
		// The parent must still be alive to collect this result at all.
		if res.ExitCode != splitExit || res.Signaled != 0 {
			return 100 + res.ExitCode
		}
		p.SignalsDrain()
		if n := chld.Load(); n != 1 {
			return 200 + int(n)
		}
		return 0
	}
	if err := rt.RegisterProgram("/bin/splitter", prog); err != nil {
		t.Fatal(err)
	}
	man, err := monitor.ParseManifest("split", "mount / /\nallow_read /bin\nallow_write /tmp\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/splitter", []string{"/bin/splitter"})
	if err != nil {
		t.Fatal(err)
	}
	<-res.Done
	if res.ExitCode() != 0 {
		t.Fatalf("sandbox split experiment failed at step %d", res.ExitCode())
	}
}
