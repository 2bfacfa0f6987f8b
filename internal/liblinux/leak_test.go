package liblinux

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"graphene/internal/api"
	"graphene/internal/apps"
	"graphene/internal/host"
	"graphene/internal/monitor"
)

// The leak oracle (ROADMAP item 7b): creating and retiring picoprocesses
// must leave the kernel's tables, the leader's accepted connections and the
// Go heap where it found them.

const (
	leakIters = 300
	// leakWarm iterations at least come first and fill the pools; the
	// warm-up then goes on until the kernel's set of retired recorders
	// stops growing (it keeps 64, and only a child that recorded an event
	// retires one — a forked child that never makes an RPC does not), so
	// that everything after it is steady state.
	leakWarm = 16
	// leakHeapPerIter bounds live-heap growth per iteration. Before exit
	// released streams, stores and recorders an iteration kept ~400 KB;
	// before wait() dropped the reaped child's PID-table entry and the
	// leader stopped recording every goodbye, 1176 B.
	leakHeapPerIter = 4 << 10
)

// killPolicy is the reference monitor plus a failure for every nth child
// picoprocess, alternating between the two ways a fork dies mid-restore:
// a fault plan that kills the child at its first mmap (a forked child's
// image mapper) or, failing that, when it binds its ipc listener; and a
// monitor that refuses the child's bulk-IPC map, which fails the restore
// and leaves the child alive to clean up after itself.
type killPolicy struct {
	host.Policy
	nth     int64
	created atomic.Int64
	denied  sync.Map // host PID -> struct{}: bulk-IPC maps to refuse
}

func (kp *killPolicy) OnProcessCreate(parent, child *host.Picoprocess, newSandbox bool) {
	kp.Policy.OnProcessCreate(parent, child, newSandbox)
	if parent == nil {
		return
	}
	n := kp.created.Add(1)
	switch {
	case n%kp.nth != 0:
	case n/kp.nth%2 == 0:
		kp.denied.Store(child.ID, struct{}{})
	default:
		child.SetFaultPlan(host.NewFaultPlan().
			Rule("sys."+strconv.Itoa(host.SysMmap), 1, host.FaultKill).
			Rule("sys."+strconv.Itoa(host.SysBind), 1, host.FaultKill))
	}
}

func (kp *killPolicy) CheckBulkIPC(proc *host.Picoprocess, creatorPID int) error {
	if _, denied := kp.denied.LoadAndDelete(proc.ID); denied {
		return api.EPERM
	}
	return kp.Policy.CheckBulkIPC(proc, creatorPID)
}

func liveHeap() uint64 {
	// Twice: the first collection empties the sync.Pools' victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runLeakLoop drives leakIters × {fork+exit+wait, Spawn("/bin/true")+wait,
// sh -c "seq 64 | grep 3 | wc"} on one kernel and holds the census, the
// leader's accepted set and the heap to their post-warm-up values. With
// killEvery > 0 every killEvery-th child fails mid-restore (killPolicy), so
// the fork's failure paths answer to the same oracle.
func runLeakLoop(t *testing.T, killEvery int64) {
	k := host.NewKernel()
	m := monitor.New(k)
	man, err := monitor.ParseManifest("leak", testManifestText)
	if err != nil {
		t.Fatal(err)
	}
	if killEvery > 0 {
		k.SetPolicy(&killPolicy{Policy: m, nth: killEvery})
	}
	rt := NewRuntime(k, m)
	if err := apps.RegisterAll(rt.RegisterProgram); err != nil {
		t.Fatal(err)
	}
	host.DumpTracesOnFailure(t, k)

	var driver *Process
	// settle waits out the tail of the last child's exit (its picoprocess
	// retires after wait() has already returned) and takes the readings.
	settle := func() (host.Census, int, uint64) {
		var c host.Census
		var accepted int
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, accepted = k.Census(), driver.Helper().AcceptedConns()
			if c.Procs == 1 && c.StreamsPeerClosed == 0 && accepted == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("kernel did not settle: %+v, %d accepted conns", c, accepted)
				break
			}
			time.Sleep(time.Millisecond)
		}
		return c, accepted, liveHeap()
	}

	var warmCensus, endCensus host.Census
	var warmHeap, endHeap uint64
	failed := 0
	code := run(t, rt, man, func(p api.OS, _ []string) int {
		driver = p.(*Process)
		// A working set for fork to checkpoint and ship over bulk IPC.
		brk0, err := p.Brk(0)
		if err != nil {
			return 1
		}
		top, err := p.Brk(brk0 + 256<<10)
		if err != nil {
			return 1
		}
		for a := brk0; a < top; a += host.PageSize {
			if err := p.MemWrite(a, []byte{0xA5}); err != nil {
				return 1
			}
		}
		// wait reaps pid; a child the fault plan killed mid-restore never
		// existed for the caller (err != nil), and one killed later is
		// reaped like any crash.
		wait := func(pid int, err error) {
			if err != nil {
				failed++
				return
			}
			if _, err := p.Wait(pid); err != nil {
				t.Errorf("wait(%d): %v", pid, err)
			}
		}
		iterate := func() {
			wait(p.Fork(func(c api.OS) { c.Exit(7) }))
			wait(p.Spawn("/bin/true", []string{"/bin/true"}))
			wait(p.Spawn("/bin/sh", []string{"/bin/sh", "-c", "seq 64 | grep 3 | wc > /leak.out"}))
		}
		for i, retired := 1, -1; ; i++ {
			iterate()
			if i < leakWarm {
				continue
			}
			warmCensus, _, warmHeap = settle()
			if warmCensus.RetiredRecorders == retired {
				break
			}
			retired = warmCensus.RetiredRecorders
		}
		for i := 0; i < leakIters; i++ {
			iterate()
		}
		endCensus, _, endHeap = settle()
		// A fork that failed left no child behind to reap.
		if res, err := p.Wait(-1); err != api.ECHILD {
			t.Errorf("wait(-1) after the loop: %+v, %v; want ECHILD", res, err)
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("driver exited %d", code)
	}
	if killEvery == 0 && failed != 0 {
		t.Errorf("%d forks failed with no fault plan installed", failed)
	}
	if killEvery > 0 && failed == 0 {
		t.Error("the fault plan killed no child mid-restore")
	}
	// A recorder's ring grows with use up to its capacity, so ring memory
	// may still move after the warm-up (the forking parent's ring doubles as
	// it records). It is held to that ceiling instead, and its growth is
	// not counted as heap the iterations kept.
	ringGrowth := int64(endCensus.RecorderBytes) - int64(warmCensus.RecorderBytes)
	if ceiling := (endCensus.RetiredRecorders + endCensus.Procs) * host.DefaultTraceRing * int(unsafe.Sizeof(host.TraceEvent{})); endCensus.RecorderBytes > ceiling {
		t.Errorf("recorders hold %d ring bytes, more than %d full rings (%d bytes)",
			endCensus.RecorderBytes, endCensus.RetiredRecorders+endCensus.Procs, ceiling)
	}
	warmRest, endRest := warmCensus, endCensus
	warmRest.RecorderBytes, endRest.RecorderBytes = 0, 0
	if endRest != warmRest {
		t.Errorf("census moved over %d iterations:\n after warm-up %+v\n at the end    %+v",
			leakIters, warmCensus, endCensus)
	}
	if endCensus.StreamsClosed != 0 || endCensus.Stores != 0 {
		t.Errorf("closed endpoints or stores still registered: %+v", endCensus)
	}
	perIter := (int64(endHeap) - int64(warmHeap) - ringGrowth) / leakIters
	t.Logf("live heap %d -> %d bytes, %d per iteration; %d forks failed; census %+v",
		warmHeap, endHeap, perIter, failed, endCensus)
	if perIter > leakHeapPerIter {
		t.Errorf("live heap grew %d bytes per iteration, limit %d", perIter, leakHeapPerIter)
	}
}

func TestForkExitWaitLeavesNothingBehind(t *testing.T) {
	runLeakLoop(t, 0)
}

func TestForkExitWaitLeavesNothingBehindUnderKills(t *testing.T) {
	runLeakLoop(t, 7)
}
