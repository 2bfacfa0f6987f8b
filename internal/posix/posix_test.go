package posix

import (
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphene/internal/api"
)

// TestFDTableMatchesModel drives a table with seeded random alloc / dup2 /
// close / snapshot against a map model: alloc takes the lowest free
// descriptor, a description's last close is reported exactly once, and a
// snapshot lists the model in ascending order.
func TestFDTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewFDTable()
		model := map[int]*Desc{}
		released := map[*Desc]int{}
		var made []*Desc
		refs := func(d *Desc) int {
			n := 0
			for _, e := range model {
				if e == d {
					n++
				}
			}
			return n
		}
		release := func(d *Desc) {
			if d != nil {
				released[d]++
			}
		}
		for step := 0; step < 400; step++ {
			fd := rng.Intn(12)
			switch op := rng.Intn(4); op {
			case 0:
				d := &Desc{Path: strconv.Itoa(len(made))}
				made = append(made, d)
				want := 0
				for model[want] != nil {
					want++
				}
				if got := tab.Alloc(d); got != want {
					t.Fatalf("seed %d step %d: alloc = %d, want lowest free %d", seed, step, got, want)
				}
				model[want] = d
			case 1:
				old := rng.Intn(12)
				d, ok := model[old]
				got, err := tab.Dup2(old, fd)
				if !ok {
					if err != api.EBADF {
						t.Fatalf("seed %d step %d: dup2 of closed fd: %v", seed, step, err)
					}
					continue
				}
				prev := model[fd]
				model[fd] = d
				if last := prev != nil && prev != d && refs(prev) == 0; (got != nil) != last || (last && got != prev) {
					t.Fatalf("seed %d step %d: dup2 released %v, want last=%v", seed, step, got, last)
				}
				release(got)
			case 2:
				d, open := model[fd]
				got, ok := tab.Remove(fd)
				if ok != open {
					t.Fatalf("seed %d step %d: remove ok = %v, want %v", seed, step, ok, open)
				}
				delete(model, fd)
				if last := open && refs(d) == 0; (got != nil) != last || (last && got != d) {
					t.Fatalf("seed %d step %d: remove released %v, want last=%v", seed, step, got, last)
				}
				release(got)
			case 3:
				snap := tab.Snapshot()
				if len(snap) != len(model) {
					t.Fatalf("seed %d step %d: snapshot has %d, model %d", seed, step, len(snap), len(model))
				}
				for i, o := range snap {
					if model[o.FD] != o.D || (i > 0 && snap[i-1].FD >= o.FD) {
						t.Fatalf("seed %d step %d: snapshot %v out of order or off the model", seed, step, snap)
					}
				}
			}
		}
		for _, d := range tab.CloseAll() {
			release(d)
		}
		if len(tab.Snapshot()) != 0 {
			t.Fatalf("seed %d: table not empty after CloseAll", seed)
		}
		for _, d := range made {
			if released[d] != 1 {
				t.Fatalf("seed %d: description %s released %d times, want once", seed, d.Path, released[d])
			}
		}
	}
}

// TestSignalDispositions checks sigaction and delivery for every signal
// under every disposition, per signal(7): SIGKILL and SIGSTOP cannot be
// caught or ignored; SIGCHLD and SIGCONT (and SIGSTOP, stopping not being
// modelled) are ignored by default; every other default action terminates.
func TestSignalDispositions(t *testing.T) {
	defaultIgnored := map[api.Signal]bool{api.SIGCHLD: true, api.SIGCONT: true, api.SIGSTOP: true}
	for sig := api.Signal(-1); sig <= api.NumSignals; sig++ {
		for _, disp := range []string{api.SigDfl, api.SigIgn, "handler", "bogus"} {
			var s Signals
			var handler api.SigHandler
			arg := disp
			if disp == "handler" {
				handler, arg = func(api.Signal) {}, ""
			}
			err := s.Sigaction(sig, handler, arg)
			settable := Valid(sig) && sig != api.SIGKILL && sig != api.SIGSTOP && disp != "bogus"
			if (err == nil) != settable {
				t.Fatalf("%v %s: sigaction err = %v, settable %v", sig, disp, err, settable)
			}
			want := Fatal
			switch {
			case !Valid(sig):
				want = Ignore
			case sig == api.SIGKILL:
			case settable && disp == "handler":
				want = Pend
			case settable && disp == api.SigIgn:
				want = Ignore
			case defaultIgnored[sig]:
				want = DefaultIgnore
			}
			intr := s.Interrupt()
			if got := s.Deliver(sig); got != want {
				t.Fatalf("%v %s: deliver = %v, want %v", sig, disp, got, want)
			}
			select {
			case <-intr:
				if want != Pend && want != Fatal {
					t.Fatalf("%v %s: an ignored signal interrupted", sig, disp)
				}
			default:
				if want == Pend || want == Fatal {
					t.Fatalf("%v %s: a caught or fatal signal did not interrupt", sig, disp)
				}
			}
			if want == Fatal {
				if got := s.Deliver(api.SIGKILL); got != Ignore {
					t.Fatalf("%v %s: a second fatal delivery = %v, want Ignore", sig, disp, got)
				}
				if s.Drain() {
					t.Fatalf("%v: drain unwound before the process exited", sig)
				}
				s.Exited()
				if !s.Drain() || !s.Killed() {
					t.Fatalf("%v: a killed, exited process's thread does not unwind", sig)
				}
			}
		}
	}
}

func TestSignalDrainResetAndCheckpoint(t *testing.T) {
	var s Signals
	var ran []api.Signal
	h := func(sig api.Signal) { ran = append(ran, sig) }
	_ = s.Sigaction(api.SIGUSR1, h, "")
	_ = s.Sigaction(api.SIGUSR2, h, "")
	_ = s.Sigaction(api.SIGPIPE, nil, api.SigIgn)
	s.Deliver(api.SIGUSR2)
	s.Deliver(api.SIGUSR1)
	if s.Drain() || !slices.Equal(ran, []api.Signal{api.SIGUSR2, api.SIGUSR1}) {
		t.Fatalf("drain ran %v, want SIGUSR2 then SIGUSR1", ran)
	}
	d := s.Dispositions()
	if len(d) != 3 || d[api.SIGPIPE] != api.SigIgn {
		t.Fatalf("dispositions = %v", d)
	}
	var child Signals
	child.RestoreDispositions(map[api.Signal]string{api.SIGPIPE: api.SigIgn, api.SIGUSR1: "handler", 99: api.SigIgn})
	if got := child.Deliver(api.SIGPIPE); got != Ignore {
		t.Fatalf("restored SIGPIPE = %v, want Ignore", got)
	}
	if got := child.Deliver(api.SIGUSR1); got != Fatal {
		t.Fatalf("a restored handler without its code = %v, want the default", got)
	}
	s.Deliver(api.SIGUSR1)
	s.ResetForExec()
	ran = nil
	if s.Drain() || len(ran) != 0 || len(s.Dispositions()) != 0 {
		t.Fatalf("exec kept handlers or queued signals: ran %v, dispositions %v", ran, s.Dispositions())
	}
}

func TestChildrenWait(t *testing.T) {
	var c Children
	if _, err := c.Wait(-1); err != api.ECHILD {
		t.Fatalf("wait with no children: %v, want ECHILD", err)
	}
	c.Add(5)
	c.Add(6)
	if c.Exit(7, 0, 0) {
		t.Fatal("a stranger's exit was recorded")
	}
	if !c.Exit(6, 1, 0) || c.Exit(6, 137, api.SIGKILL) {
		t.Fatal("the first exit report must win, once")
	}
	if res, err := c.Wait(-1); err != nil || res != (api.WaitResult{PID: 6, ExitCode: 1}) {
		t.Fatalf("wait(-1) = %v %v", res, err)
	}
	if _, err := c.Wait(6); err != api.ECHILD {
		t.Fatalf("a reaped child waited again: %v", err)
	}
	done := make(chan error)
	go func() {
		_, err := c.Wait(5)
		done <- err
	}()
	c.Forget(5)
	if err := <-done; err != api.ECHILD {
		t.Fatalf("waiter for a forgotten child: %v, want ECHILD", err)
	}
}

// TestChildrenExitRacesWait reaps children whose exits land concurrently
// with the waits; run under -race.
func TestChildrenExitRacesWait(t *testing.T) {
	const n = 200
	var c Children
	for pid := 1; pid <= n; pid++ {
		c.Add(pid)
	}
	var wg sync.WaitGroup
	for pid := 1; pid <= n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			c.Exit(pid, pid%256, 0)
		}(pid)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		pid := -1
		if i%2 == 0 {
			pid = n - i/2
			if seen[pid] {
				pid = -1
			}
		}
		res, err := c.Wait(pid)
		if err != nil || seen[res.PID] || res.ExitCode != res.PID%256 {
			t.Fatalf("wait(%d) = %v %v", pid, res, err)
		}
		seen[res.PID] = true
	}
	wg.Wait()
	if _, err := c.Wait(-1); err != api.ECHILD {
		t.Fatalf("all reaped, wait = %v", err)
	}
}

func fixedSize(string) (api.Stat, error) { return api.Stat{Size: 100}, nil }

// TestHotPathsDoNotAllocate: descriptor lookup, a drain with nothing
// queued and lseek run on every read and write of syscall_mix.
func TestHotPathsDoNotAllocate(t *testing.T) {
	tab := NewFDTable()
	d := &Desc{Kind: File}
	fd := tab.Alloc(d)
	var s Signals
	if n := testing.AllocsPerRun(100, func() { tab.Get(fd) }); n != 0 {
		t.Errorf("FDTable.Get: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Drain() }); n != 0 {
		t.Errorf("empty drain: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _ = d.Lseek(1, api.SeekCur, fixedSize)
		_, _ = d.Lseek(-1, api.SeekEnd, fixedSize)
	}); n != 0 {
		t.Errorf("lseek: %v allocs", n)
	}
}

func TestSeek(t *testing.T) {
	d := &Desc{Kind: File}
	for _, c := range []struct {
		off    int64
		whence int
		want   int64
		err    error
	}{
		{10, api.SeekSet, 10, nil}, {5, api.SeekCur, 15, nil}, {-1, api.SeekEnd, 99, nil},
		{-200, api.SeekCur, 0, api.EINVAL}, {0, 7, 0, api.EINVAL},
	} {
		got, err := d.Lseek(c.off, c.whence, fixedSize)
		if err != c.err || (err == nil && got != c.want) {
			t.Fatalf("lseek(%d, %d) = %d %v, want %d %v", c.off, c.whence, got, err, c.want, c.err)
		}
	}
	if _, err := (&Desc{Kind: Pipe}).Lseek(0, api.SeekSet, fixedSize); err != api.ESPIPE {
		t.Fatalf("lseek on a pipe: %v, want ESPIPE", err)
	}
}

// TestCoreImportsNoPersonality keeps the core below every personality: it
// imports the standard library, api and host, and nothing else.
func TestCoreImportsNoPersonality(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "graphene/") && path != "graphene/internal/api" && path != "graphene/internal/host" {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}
