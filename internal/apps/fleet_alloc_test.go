package apps

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"strconv"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

// A served request end to end: a client program in the Graphene sandbox of
// a 4-worker /bin/httpd-fleet fetches, on a connection of its own, a 200 B
// file or, one request in eight, a 16 KiB one — the shape of the
// benchmark's httpd_fleet workload, closed loop on one connection.

const (
	fleetReqAddr    = "127.0.0.1:8290"
	fleetReqWorkers = 4
	fleetReqSmall   = 200
	fleetReqLarge   = 16 << 10
	fleetReqLargeIn = 8
)

// fleetReq is one kind of request: its request line and the whole reply
// it must get back.
type fleetReq struct {
	line, head []byte
	body       int
}

var fleetReqs = [2]fleetReq{
	{[]byte("GET /small\n"), []byte("OK " + strconv.Itoa(fleetReqSmall) + "\n"), fleetReqSmall},
	{[]byte("GET /large\n"), []byte("OK " + strconv.Itoa(fleetReqLarge) + "\n"), fleetReqLarge},
}

// fleetGet performs one GET through buf and checks the reply.
func fleetGet(p api.OS, r fleetReq, buf []byte) error {
	fd, err := p.Connect(fleetReqAddr)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	if _, err := p.Write(fd, r.line); err != nil {
		return err
	}
	got := 0
	for got < len(buf) {
		n, err := p.Read(fd, buf[got:])
		if err != nil || n == 0 {
			break
		}
		got += n
	}
	if !bytes.HasPrefix(buf[:got], r.head) || got != len(r.head)+r.body {
		return fmt.Errorf("%q answered with %d bytes, want %q and %d", r.line, got, r.head, len(r.head)+r.body)
	}
	return nil
}

// startFleetRequests boots the fleet and its client and returns get, which
// has the client serve request i, and stop, which drains the fleet and
// checks that everything exited cleanly.
func startFleetRequests(tb testing.TB) (get func(i int) error, stop func()) {
	tb.Helper()
	k := host.NewKernel()
	rt := liblinux.NewRuntime(k, monitor.New(k))
	if err := RegisterAll(rt.RegisterProgram); err != nil {
		tb.Fatal(err)
	}
	body := bytes.Repeat([]byte("0123456789abcdef"), fleetReqLarge/16)
	if err := k.FS.MkdirAll("/www", 0755); err != nil {
		tb.Fatal(err)
	}
	if err := k.FS.WriteFile("/www/small", body[:fleetReqSmall], 0644); err != nil {
		tb.Fatal(err)
	}
	if err := k.FS.WriteFile("/www/large", body, 0644); err != nil {
		tb.Fatal(err)
	}
	reqs := make(chan int)
	errs := make(chan error)
	client := func(p api.OS, _ []string) int {
		master, err := p.Spawn("/bin/httpd-fleet", []string{"httpd-fleet", fleetReqAddr,
			strconv.Itoa(fleetReqWorkers), "/www", "sb=" + fleetSB, "drain_ms=100"})
		if err != nil {
			errs <- err
			return 1
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if board, _ := readFile(p, fleetSB); scoreboardField(string(board), "alive") == fleetReqWorkers {
				break
			}
			if time.Now().After(deadline) {
				errs <- fmt.Errorf("the fleet never reported %d workers alive", fleetReqWorkers)
				return 1
			}
		}
		errs <- nil
		buf := make([]byte, fleetReqLarge+32)
		for i := range reqs {
			r := fleetReqs[0]
			if i%fleetReqLargeIn == 0 {
				r = fleetReqs[1]
			}
			errs <- fleetGet(p, r, buf)
		}
		if err := writeFile(p, fleetSB+".stop", nil); err != nil {
			return 1
		}
		if res, err := p.Wait(master); err != nil || res.ExitCode != 0 {
			return 1
		}
		return 0
	}
	if err := rt.RegisterProgram("/bin/fleet-client", client); err != nil {
		tb.Fatal(err)
	}
	man, err := monitor.ParseManifest("fleet", "mount / /\nallow_read /\nallow_write /\nnet_listen *:*\nnet_connect *:*\n")
	if err != nil {
		tb.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/fleet-client", []string{"fleet-client"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-errs; err != nil {
		tb.Fatal(err)
	}
	get = func(i int) error {
		reqs <- i
		return <-errs
	}
	stop = func() {
		close(reqs)
		select {
		case <-res.Done:
			if code := res.ExitCode(); code != 0 {
				tb.Fatalf("fleet client exit = %d, want 0", code)
			}
		case <-time.After(30 * time.Second):
			tb.Fatal("the fleet did not drain")
		}
	}
	return get, stop
}

// BenchmarkFleetRequest is one closed-loop GET through the fleet.
func BenchmarkFleetRequest(b *testing.B) {
	b.ReportAllocs()
	get, stop := startFleetRequests(b)
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := get(i); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetRequestBudget is the heap a served request may allocate, the whole
// sandbox counted: client, master and worker, libOS and host kernel.
const fleetRequestBudget = 10 << 10

// TestFleetRequestAllocBudget measures the heap bytes allocated per request
// over 2 000 requests, after 200 that warm the fleet up.
func TestFleetRequestAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled stream rings at random")
	}
	get, stop := startFleetRequests(t)
	defer stop()
	const warm, measured = 200, 2000
	for i := range warm {
		if err := get(i); err != nil {
			t.Fatal(err)
		}
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	for i := range measured {
		if err := get(i); err != nil {
			t.Fatal(err)
		}
	}
	metrics.Read(sample)
	per := (sample[0].Value.Uint64() - before) / measured
	t.Logf("%d heap bytes per request", per)
	if per > fleetRequestBudget {
		t.Fatalf("a served request allocated %d heap bytes, budget %d", per, fleetRequestBudget)
	}
}
