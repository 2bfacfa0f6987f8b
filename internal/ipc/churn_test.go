package ipc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
)

// TestSemChurnNoLostWakeup hammers one semaphore and one queue from six
// helpers with half of them exiting mid-run — the churn that uncovered the
// leaked-backlog and split-ownership bugs. Thirty rounds per run.
func TestSemChurnNoLostWakeup(t *testing.T) {
	for round := 0; round < 30; round++ {
		g := newTestGroup(t)
		lh, lp := g.leader(newFakeService())
		const workers = 6
		var hs []*Helper
		for i := 0; i < workers; i++ {
			h, _ := g.member(lp, lh.Addr, int64(10+i), newFakeService())
			hs = append(hs, h)
		}
		id, err := lh.Semget(900, 1, api.IPCCreat)
		if err != nil {
			t.Fatal(err)
		}
		qid, err := lh.Msgget(901, api.IPCCreat)
		if err != nil {
			t.Fatal(err)
		}
		if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 2}}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errCh := make(chan string, workers)
		for w, h := range hs {
			wg.Add(1)
			go func(w int, h *Helper) {
				defer wg.Done()
				cid, err := h.Semget(900, 1, 0)
				if err != nil {
					errCh <- fmt.Sprintf("w%d semget: %v", w, err)
					return
				}
				for i := 0; i < 25; i++ {
					if err := h.Semop(cid, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
						errCh <- fmt.Sprintf("w%d acquire %d: %v", w, i, err)
						return
					}
					if err := h.Msgsnd(qid, int64(w+1), []byte{byte(w), byte(i)}, 0); err != nil {
						errCh <- fmt.Sprintf("w%d send %d: %v", w, i, err)
						return
					}
					if err := h.Semop(cid, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
						errCh <- fmt.Sprintf("w%d release %d: %v", w, i, err)
						return
					}
				}
				// Simulate exit churn: half the helpers shut down.
				if w%2 == 0 {
					h.Shutdown()
					h.pal.Proc().Exit(0)
				}
			}(w, h)
		}
		recvDone := make(chan error, 1)
		go func() {
			for i := 0; i < workers*25; i++ {
				if _, _, err := lh.Msgrcv(qid, 0, 0); err != nil {
					recvDone <- err
					return
				}
			}
			recvDone <- nil
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: sem churn deadlocked", round)
		}
		select {
		case e := <-errCh:
			t.Fatalf("round %d: %s", round, e)
		default:
		}
		select {
		case err := <-recvDone:
			if err != nil {
				t.Fatalf("round %d: parent recv: %v", round, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: parent recv deadlocked", round)
		}
	}
}

func TestDebugSysVStateRenders(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	id, err := lh.Semget(5, 1, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	qid, err := lh.Msgget(6, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	out := lh.DebugSysVState()
	for _, want := range []string{"helper " + lh.Addr, fmt.Sprint("sem ", id), fmt.Sprint("q ", qid), "leader.owners",
		fmt.Sprint("leader.owners sem ", id, "=", lh.Addr, " epoch=1\n"), fmt.Sprint("leader.owners q ", qid, "=", lh.Addr, " epoch=1\n")} {
		if !containsStr(out, want) {
			t.Errorf("debug state missing %q:\n%s", want, out)
		}
	}
	// A member that used both objects caches both owners (a lookup alone
	// caches nothing: the first use does).
	if _, err := mh.Semget(5, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mh.Msgget(6, 0); err != nil {
		t.Fatal(err)
	}
	if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := mh.Msgsnd(qid, 1, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	out = mh.DebugSysVState()
	for _, want := range []string{fmt.Sprint("ownerCache sem ", id, "=", lh.Addr), fmt.Sprint("ownerCache q ", qid, "=", lh.Addr)} {
		if !containsStr(out, want) {
			t.Errorf("member debug state missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
