package main

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/api"
	"graphene/internal/liblinux"
)

// workload is one set of inputs the benchmark runs. program returns the
// guest driver of one round: a program on api.OS that warms up, calls
// r.startTimed, runs r.units verified units, calls r.stopTimed, parks for
// the harness, and tears its processes down. units is sized so a round's
// timed phase takes about a second on the 2-core reference box;
// openLoopUnits is the extra open-loop phase of httpd_fleet.
//
// verboseUnits is the size of the traced run's verbose round: few enough
// units that no picoprocess's 2048-event flight recorder wraps inside the
// timed window (and, for proc_tree, that the kernel's 64 retained
// recorders of exited picoprocesses cover all of them), so the stream
// counts read back are exact. host.trace_dropped checks it.
type workload struct {
	name          string
	why           string
	units         int
	openLoopUnits int
	verboseUnits  int
	program       func(r *roundRec) api.Program
}

var workloads = []*workload{
	{
		name:         "syscall_mix",
		why:          "one picoprocess, no RPC, no fork: libLinux -> PAL -> seccomp gate -> monitor -> host FS does all the work, so an ipc or fleet change must leave it flat",
		units:        50000,
		verboseUnits: 32,
		program:      syscallMix,
	},
	{
		name:         "proc_tree",
		why:          "fork+exit+wait, spawn and a 3-stage sh pipeline: the paper's fork-by-checkpoint over bulk IPC, PID allocation and exit notification; retained_mb shows the heap a kernel keeps per fork",
		units:        120,
		verboseUnits: 8,
		program:      procTree,
	},
	{
		name:         "sysv_rpc",
		why:          "request/reply over two established SysV queues plus a semaphore between two picoprocesses: the ipc data path (ring, RPC fallback, migration) with fork and monitor idle",
		units:        200000,
		verboseUnits: 64,
		program:      sysvRPC,
	},
	{
		name:         "ns_churn",
		why:          "two workers create, look up and remove fresh SysV keys through the leader: the ipc namespace plane (ID ranges, leases, tombstones), the opposite use of the layer sysv_rpc reads",
		units:        40000,
		verboseUnits: 32,
		program:      nsChurn,
	},
	{
		name:          "httpd_fleet",
		why:           "4-worker prefork fleet, accept -> dispatch -> PassConnection -> worker: apps, host listener/stream and liblinux socket work no other workload touches; closed loop on 2 connections",
		units:         10000,
		openLoopUnits: 2400,
		verboseUnits:  32,
		program:       httpdFleet,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// syscall_mix
// ---------------------------------------------------------------------

const (
	mixFiles   = 32
	mixWarmup  = 2000
	mixFileLen = 4096
	mixMapLen  = 64 << 10
)

// syscallMix: unit = open(O_CREAT)+write 4 KiB+lseek+read+fstat+close,
// stat, pipe 64 B write/read, SIGUSR1 to self+drain, mmap 64 KiB+touch a
// page+munmap, getpid. The seed picks the path and the payload of every
// unit; every byte read back is compared.
func syscallMix(r *roundRec) api.Program {
	return func(p api.OS, _ []string) int {
		d := r.drive(p)
		p = d.os
		block := make([]byte, 64<<10)
		r.rng.Read(block)
		if err := p.Mkdir("/mix", 0755); err != nil {
			return 1
		}
		var paths [mixFiles]string
		for i := range paths {
			paths[i] = "/mix/f" + strconv.Itoa(i)
		}
		signals := 0
		if err := p.Sigaction(api.SIGUSR1, func(api.Signal) { signals++ }, ""); err != nil {
			return 1
		}
		pr, pw, err := p.Pipe()
		if err != nil {
			return 1
		}
		self := p.Getpid()
		buf := make([]byte, mixFileLen)
		small := make([]byte, 64)
		page := make([]byte, 4096)

		unit := func(n int) {
			d.begin(n)
			path := paths[r.rng.Intn(mixFiles)]
			off := r.rng.Intn(len(block) - mixFileLen)
			data := block[off : off+mixFileLen]

			s := d.step("file")
			fd, err := p.Open(path, api.OCreate|api.ORdWr, 0644)
			if err != nil {
				d.fail("unit %d: open %s: %v", n, path, err)
			} else {
				if w, err := p.Write(fd, data); err != nil || w != len(data) {
					d.check(err, "unit %d: short write of %d", n, w)
				}
				if _, err := p.Lseek(fd, 0, api.SeekSet); err != nil {
					d.fail("unit %d: lseek: %v", n, err)
				}
				if got, err := p.Read(fd, buf); err != nil || !bytes.Equal(buf[:got], data) {
					d.check(err, "unit %d: the %d bytes read back differ", n, got)
				}
				if st, err := p.Fstat(fd); err != nil || st.Size != mixFileLen {
					d.check(err, "unit %d: fstat size %d", n, st.Size)
				}
				if err := p.Close(fd); err != nil {
					d.fail("unit %d: close: %v", n, err)
				}
			}
			d.done(s)

			s = d.step("stat")
			if st, err := p.Stat(path); err != nil || st.Size != mixFileLen {
				d.check(err, "unit %d: stat size %d", n, st.Size)
			}
			d.done(s)

			s = d.step("pipe_rt")
			if _, err := p.Write(pw, data[:64]); err != nil {
				d.fail("unit %d: pipe write: %v", n, err)
			} else if got, err := p.Read(pr, small); err != nil || !bytes.Equal(small[:got], data[:64]) {
				d.check(err, "unit %d: pipe read back differs", n)
			}
			d.done(s)

			s = d.step("signal")
			before := signals
			if err := p.Kill(self, api.SIGUSR1); err != nil {
				d.fail("unit %d: kill self: %v", n, err)
			}
			p.SignalsDrain()
			if signals != before+1 {
				d.wrong("unit %d: handler ran %d times", n, signals-before)
			}
			d.done(s)

			s = d.step("mmap")
			addr, err := p.Mmap(0, mixMapLen, api.ProtRead|api.ProtWrite)
			if err != nil {
				d.fail("unit %d: mmap: %v", n, err)
			} else {
				if err := p.MemWrite(addr+4096, data[:4096]); err != nil {
					d.fail("unit %d: memwrite: %v", n, err)
				}
				if err := p.MemRead(addr+4096, page); err != nil || !bytes.Equal(page, data[:4096]) {
					d.check(err, "unit %d: memread differs", n)
				}
				if err := p.Munmap(addr, mixMapLen); err != nil {
					d.fail("unit %d: munmap: %v", n, err)
				}
			}
			d.done(s)

			s = d.step("getpid")
			if p.Getpid() != self {
				d.wrong("unit %d: getpid changed", n)
			}
			d.done(s)
		}

		for i := 0; i < mixWarmup; i++ {
			unit(-1 - i)
			d.end(0)
		}
		r.startTimed()
		for i := 0; i < r.units; i++ {
			unit(i)
			d.end(countLatency | countThroughput)
		}
		r.stopTimed()
		r.park()
		return 0
	}
}

// ---------------------------------------------------------------------
// proc_tree
// ---------------------------------------------------------------------

const (
	treeHeap   = 8 << 20 // driver heap every fork checkpoints copy-on-write
	treeParked = 8       // forked children alive at the measuring point
	treeWarmup = 3
)

// linesWithDigit counts the numbers in 1..n whose decimal form contains
// digit — what `seq n | grep digit | wc` must print first.
func linesWithDigit(n int, digit string) (lines, bytesOut int) {
	for i := 1; i <= n; i++ {
		s := strconv.Itoa(i)
		if strings.Contains(s, digit) {
			lines++
			bytesOut += len(s) + 1
		}
	}
	return lines, bytesOut
}

// procTree: unit = fork+exit+wait, Spawn("/bin/true")+wait, and
// sh -c "seq 64 | grep D | wc > file" with the count checked. The seed
// picks D and the child's exit code.
func procTree(r *roundRec) api.Program {
	return func(p api.OS, _ []string) int {
		d := r.drive(p)
		p = d.os
		// The driver's working set: every fork checkpoints this heap and
		// ships it copy-on-write over bulk IPC.
		brk0, err := p.Brk(0)
		if err != nil {
			return 1
		}
		top, err := p.Brk(brk0 + treeHeap)
		if err != nil {
			return 1
		}
		for a := brk0; a < top; a += 4096 {
			if err := p.MemWrite(a, []byte{0xA5}); err != nil {
				return 1
			}
		}
		out := make([]byte, 64)

		unit := func(n int) {
			d.begin(n)
			code := 1 + r.rng.Intn(100)
			digit := strconv.Itoa(1 + r.rng.Intn(6))

			s := d.step("fork_exit_wait")
			pid, err := p.Fork(func(c api.OS) { c.Exit(code) })
			if err != nil {
				d.fail("unit %d: fork: %v", n, err)
			} else if res, err := p.Wait(pid); err != nil || res.ExitCode != code {
				d.check(err, "unit %d: forked child exited %d, want %d", n, res.ExitCode, code)
			}
			d.done(s)

			s = d.step("spawn_wait")
			pid, err = p.Spawn("/bin/true", []string{"/bin/true"})
			if err != nil {
				d.fail("unit %d: spawn: %v", n, err)
			} else if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
				d.check(err, "unit %d: /bin/true exited %d", n, res.ExitCode)
			}
			d.done(s)

			s = d.step("sh_pipeline")
			pid, err = p.Spawn("/bin/sh", []string{"/bin/sh", "-c", "seq 64 | grep " + digit + " | wc > /tree.out"})
			if err != nil {
				d.fail("unit %d: spawn sh: %v", n, err)
			} else if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
				d.check(err, "unit %d: sh exited %d", n, res.ExitCode)
			} else {
				lines, nbytes := linesWithDigit(64, digit)
				want := strconv.Itoa(lines) + " " + strconv.Itoa(nbytes) + "\n"
				got := ""
				if fd, err := p.Open("/tree.out", api.ORdOnly, 0); err == nil {
					k, _ := p.Read(fd, out)
					got = string(out[:k])
					_ = p.Close(fd)
				}
				if got != want {
					d.wrong("unit %d: wc printed %q want %q", n, got, want)
				}
			}
			d.done(s)
		}

		for i := 0; i < treeWarmup; i++ {
			unit(-1 - i)
			d.end(0)
		}
		r.startTimed()
		for i := 0; i < r.units; i++ {
			unit(i)
			d.end(countLatency | countThroughput)
		}
		r.stopTimed()
		if lp, ok := unwrap(p).(*liblinux.Process); ok && r.t != nil {
			if ck, err := lp.CheckpointToBytes(); err == nil {
				r.checkpointKB = float64(len(ck)) / 1024
			}
		}

		// The Fig 4 footprint: the driver plus forked children parked on
		// an empty pipe, measured while all of them are alive.
		pr, pw, err := p.Pipe()
		if err != nil {
			return 1
		}
		var kids [treeParked]int
		for i := range kids {
			kids[i], err = p.Fork(func(c api.OS) {
				_ = c.Close(pw)
				one := make([]byte, 1)
				_, _ = c.Read(pr, one) // EOF when the driver closes pw
				c.Exit(0)
			})
			if err != nil {
				return 1
			}
		}
		r.park()
		_ = p.Close(pw)
		for _, pid := range kids {
			if _, err := p.Wait(pid); err != nil {
				return 1
			}
		}
		return 0
	}
}

// ---------------------------------------------------------------------
// sysv_rpc
// ---------------------------------------------------------------------

const (
	rpcReqKey   = 0x5100
	rpcReplyKey = 0x5101
	rpcSemKey   = 0x5102
	rpcWarmup   = 512
	rpcBigEvery = 64
	rpcSemEvery = 8
	rpcSmall    = 64
	rpcBig      = 8 << 10
)

// sysvRPC: the root owns a request queue, a reply queue and a semaphore;
// a forked client sends a sequence-numbered request, the server receives
// it and sends the reply, the client receives it by mtype. Every 8th unit
// is wrapped in a semop P/V pair; 1 payload in 64 is 8 KiB, the rest 64 B,
// at seeded positions. The server checks FIFO order, the client the echo.
func sysvRPC(r *roundRec) api.Program {
	return func(p api.OS, _ []string) int {
		reqQ, err := p.Msgget(rpcReqKey, api.IPCCreat)
		if err != nil {
			return 1
		}
		replyQ, err := p.Msgget(rpcReplyKey, api.IPCCreat)
		if err != nil {
			return 1
		}
		sem, err := p.Semget(rpcSemKey, 1, api.IPCCreat)
		if err != nil {
			return 1
		}
		if err := p.Semop(sem, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
			return 1
		}
		block := make([]byte, rpcBig+rpcBigEvery*8)
		r.rng.Read(block)
		bigAt := r.rng.Intn(rpcBigEvery)
		total := rpcWarmup + r.units
		var fifoBreaks atomic.Int64

		client, err := p.Fork(func(c api.OS) {
			d := r.drive(c)
			c = d.os
			pv := [2][]api.SemBuf{{{Num: 0, Op: -1}}, {{Num: 0, Op: 1}}}
			unit := func(n, seq int) {
				d.begin(n)
				size := rpcSmall
				if seq%rpcBigEvery == bigAt {
					size = rpcBig
				}
				payload := block[seq%rpcBigEvery*8:][:size]
				binary.LittleEndian.PutUint64(payload, uint64(seq))
				mtype := int64(1 + seq%7)
				locked := seq%rpcSemEvery == 0
				if locked {
					s := d.step("sem_p")
					if err := c.Semop(sem, pv[0]); err != nil {
						d.fail("unit %d: semop P: %v", n, err)
					}
					d.done(s)
				}
				s := d.step("request")
				if err := c.Msgsnd(reqQ, mtype, payload, 0); err != nil {
					d.fail("unit %d: msgsnd: %v", n, err)
				}
				d.done(s)
				s = d.step("reply")
				mt, data, err := c.Msgrcv(replyQ, mtype, nil, 0)
				if err != nil || mt != mtype || !bytes.Equal(data, payload) {
					d.check(err, "unit %d: reply mtype %d want %d, %d bytes", n, mt, mtype, len(data))
				}
				d.done(s)
				if locked {
					s := d.step("sem_v")
					if err := c.Semop(sem, pv[1]); err != nil {
						d.fail("unit %d: semop V: %v", n, err)
					}
					d.done(s)
				}
			}
			for i := 0; i < rpcWarmup; i++ {
				unit(-1-i, i)
				d.end(0)
			}
			// The ring grant is asynchronous: give it a moment to land so
			// the timed phase runs on the established datapath.
			time.Sleep(2 * time.Millisecond)
			r.startTimed()
			for i := 0; i < r.units; i++ {
				unit(i, rpcWarmup+i)
				d.end(countLatency | countThroughput)
			}
			r.stopTimed()
			if n := fifoBreaks.Load(); n != 0 {
				r.mu.Lock()
				r.failed += int(n)
				r.wrong += int(n)
				r.mu.Unlock()
				r.miss("server saw %d requests out of FIFO order", n)
			}
			r.park()
			c.Exit(0)
		})
		if err != nil {
			return 1
		}
		for want := 0; want < total; want++ {
			mt, data, err := p.Msgrcv(reqQ, 0, nil, 0)
			if err != nil {
				return 1
			}
			if len(data) < 8 || int(binary.LittleEndian.Uint64(data)) != want {
				fifoBreaks.Add(1)
			}
			if err := p.Msgsnd(replyQ, mt, data, 0); err != nil {
				return 1
			}
		}
		res, err := p.Wait(client)
		if err != nil || res.ExitCode != 0 {
			return 1
		}
		_ = p.MsgctlRmid(reqQ)
		_ = p.MsgctlRmid(replyQ)
		_ = p.SemctlRmid(sem)
		return 0
	}
}

// ---------------------------------------------------------------------
// ns_churn
// ---------------------------------------------------------------------

const (
	churnWorkers = 2
	churnWarmup  = 200
	churnBlock   = 64 // keys per lease block in internal/ipc
)

// sysvObj is one System V object of a churn worker: a message queue, or
// a semaphore set when sem is set. gen says which of the worker's
// creations it was (1, 2, …; 0 = none yet).
type sysvObj struct {
	key, id, gen int
	sem          bool
}

// get is msgget or semget of the object's key with flags.
func (o sysvObj) get(c api.OS, flags int) (int, error) {
	if o.sem {
		return c.Semget(o.key, 1, flags)
	}
	return c.Msgget(o.key, flags)
}

// rmid destroys the object.
func (o sysvObj) rmid(c api.OS) error {
	if o.sem {
		return c.SemctlRmid(o.id)
	}
	return c.MsgctlRmid(o.id)
}

// published is what a churn worker tells its sibling: the object it
// created last, and the newest creation it has since removed, so a
// sibling that finds the key gone can tell a correct ENOENT from a bug.
type published struct {
	mu             sync.Mutex
	latest         sysvObj
	removedThrough atomic.Int64
}

func (p *published) removed(o sysvObj) bool { return p.removedThrough.Load() >= int64(o.gen) }

// churnSettle bounds how long a live key may stay invisible to a sibling
// before the lookup counts as a wrong output.
const churnSettle = 100 * time.Millisecond

// resolvesSoon repeats a lookup that wrongly answered ENOENT until it
// returns the published ID, the publisher removes the object, or
// churnSettle has passed.
func resolvesSoon(c api.OS, o sysvObj, pub *published) bool {
	for deadline := time.Now().Add(churnSettle); time.Now().Before(deadline); {
		if got, err := o.get(c, 0); err == nil {
			return got == o.id
		}
		if pub.removed(o) {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// nsChurn: unit = get(IPC_CREAT|IPC_EXCL, fresh key) -> lookup of the
// sibling's latest key -> RMID of the previous object -> lookup of the
// removed key (must be ENOENT); message queues and semaphore sets
// alternate. The seed picks each worker's key range and key order.
func nsChurn(r *roundRec) api.Program {
	return func(p api.OS, _ []string) int {
		var pub [churnWorkers]published
		ready := newRendezvous(churnWorkers)
		finished := newRendezvous(churnWorkers)
		perWorker := r.units / churnWorkers
		var pids [churnWorkers]int
		for w := 0; w < churnWorkers; w++ {
			w := w
			// Keys are clustered the way applications name related objects
			// (a base plus a small index): the worker fills one 64-key block
			// after another, each in an order the seed shuffles, so how often
			// it crosses into a fresh block does not depend on the seed.
			base := 0x100000*(w+1) + churnBlock*r.rng.Intn(1<<10)
			order := r.rng.Perm(churnBlock)
			pid, err := p.Fork(func(c api.OS) {
				d := r.drive(c)
				c = d.os
				mine, theirs := &pub[w], &pub[1-w]
				var prev sysvObj
				unit := func(n int) {
					d.begin(n)
					gen := prev.gen + 1
					cur := sysvObj{
						key: base + gen/churnBlock*churnBlock + order[gen%churnBlock],
						gen: gen, sem: gen%2 == 1,
					}

					s := d.step("create")
					var err error
					if cur.id, err = cur.get(c, api.IPCCreat|api.IPCExcl); err != nil {
						d.fail("unit %d: create key %#x: %v", n, cur.key, err)
					}
					d.done(s)
					mine.mu.Lock()
					mine.latest = cur
					mine.mu.Unlock()

					theirs.mu.Lock()
					sib := theirs.latest
					theirs.mu.Unlock()
					if sib.gen > 0 {
						s = d.step("lookup")
						got, err := sib.get(c, 0)
						d.done(s)
						switch {
						case err == nil && got != sib.id:
							d.wrong("unit %d: lookup key %#x: id %d want %d", n, sib.key, got, sib.id)
						case err != nil && !(api.ToErrno(err) == api.ENOENT && theirs.removed(sib)):
							// A live key must resolve. About once in 20 million
							// units it transiently does not (seen once, under
							// a scheduling stall, never reproduced): that is
							// counted and named as ipc.stale_lookups, and is a
							// wrong output only if the key stays invisible.
							r.staleLookup(n, sib.key)
							if !resolvesSoon(c, sib, theirs) {
								d.wrong("unit %d: live key %#x stayed invisible: %v", n, sib.key, err)
							}
						}
					}

					if prev.gen > 0 {
						// Announced before the call: from here on a sibling
						// may rightly find the key gone.
						mine.removedThrough.Store(int64(prev.gen))
						s = d.step("remove")
						if err := prev.rmid(c); err != nil {
							d.fail("unit %d: rmid %d: %v", n, prev.id, err)
						}
						d.done(s)
						s = d.step("lookup_removed")
						if _, err := prev.get(c, 0); api.ToErrno(err) != api.ENOENT {
							d.wrong("unit %d: removed key %#x: %v, want ENOENT", n, prev.key, err)
						}
						d.done(s)
					}
					prev = cur
				}
				for i := 0; i < churnWarmup; i++ {
					unit(-1 - i)
					d.end(0)
				}
				ready.meet(r.startTimed)
				for i := 0; i < perWorker; i++ {
					unit(w*perWorker + i)
					d.end(countLatency | countThroughput)
				}
				finished.meet(func() { r.stopTimed(); r.park() })
				_ = prev.rmid(c)
				c.Exit(0)
			})
			if err != nil {
				return 1
			}
			pids[w] = pid
		}
		for _, pid := range pids {
			if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
				return 1
			}
		}
		return 0
	}
}

// ---------------------------------------------------------------------
// httpd_fleet
// ---------------------------------------------------------------------

const (
	fleetAddr      = api.SockAddr("127.0.0.1:8080")
	fleetBoard     = "/fleet-board"
	fleetWorkers   = 4
	fleetConns     = 2
	fleetRate      = 4000 // open-loop requests per second, all connections
	fleetWarmup    = 200
	fleetSmallLen  = 200
	fleetLargeLen  = 16 << 10
	fleetLargeIn   = 8 // one request in 8 fetches the large file
	fleetLatencyOK = time.Second
)

// boardField reads one integer field of the fleet's scoreboard line.
func boardField(line, key string) int {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	return -1
}

func readSmallFile(p api.OS, path string) string {
	fd, err := p.Open(path, api.ORdOnly, 0)
	if err != nil {
		return ""
	}
	defer p.Close(fd)
	buf := make([]byte, 1024)
	n, _ := p.Read(fd, buf)
	return string(buf[:n])
}

func writeWholeFile(p api.OS, path string, data []byte) error {
	fd, err := p.Open(path, api.OCreate|api.OTrunc|api.OWrOnly, 0644)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n, err := p.Write(fd, data)
		if err != nil {
			_ = p.Close(fd)
			return err
		}
		data = data[n:]
	}
	return p.Close(fd)
}

// fetch performs one GET on its own connection and checks the status line
// and the body length.
func fetch(d *driver, n int, path string, want int, buf []byte) {
	p := d.os
	s := d.step("connect")
	fd, err := p.Connect(fleetAddr)
	d.done(s)
	if err != nil {
		d.fail("request %d: connect: %v", n, err)
		return
	}
	s = d.step("send")
	_, err = p.Write(fd, []byte("GET "+path+"\n"))
	d.done(s)
	if err != nil {
		d.fail("request %d: send: %v", n, err)
		_ = p.Close(fd)
		return
	}
	// The reply is "OK <len>\n" followed by the body; read until the
	// server closes the connection.
	s = d.step("receive")
	got := 0
	for got < len(buf) {
		k, err := p.Read(fd, buf[got:])
		if err != nil || k == 0 {
			break
		}
		got += k
	}
	d.done(s)
	head := "OK " + strconv.Itoa(want) + "\n"
	if !bytes.HasPrefix(buf[:got], []byte(head)) || got != len(head)+want {
		line, _, _ := bytes.Cut(buf[:got], []byte("\n"))
		d.wrong("request %d: %s answered %q with %d bytes, want %q and %d", n, path, line, got, strings.TrimSpace(head), len(head)+want)
	}
	s = d.step("close")
	_ = p.Close(fd)
	d.done(s)
}

// waitUntil blocks until due (see sleepFor for why not time.Sleep). The
// generator never spins: a thread spinning on one of the two processors
// keeps the Go scheduler from stealing work for it, and the fleet's
// threads then queue behind garbage-collection workers for milliseconds.
func waitUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		sleepFor(wait)
	}
}

// httpdFleet: /bin/httpd-fleet with 4 fixed workers serving a 200 B and a
// 16 KiB file, driven by this program's own generator on 2 connections:
// an open-loop phase at a fixed rate timed from each request's due time
// (reported per-layer as bench.open_p50_us / open_p90_us: run to run it
// moves by a third, too much to gate on), then a closed-loop phase that
// gives the end-to-end latency and throughput. The seed places the large
// requests and the phase between the two connections' schedules.
func httpdFleet(r *roundRec) api.Program {
	return func(p api.OS, _ []string) int {
		threader, ok := p.(api.Threader)
		if !ok {
			return 1
		}
		body := make([]byte, fleetLargeLen)
		r.rng.Read(body)
		if err := p.Mkdir("/www", 0755); err != nil {
			return 1
		}
		if writeWholeFile(p, "/www/small", body[:fleetSmallLen]) != nil || writeWholeFile(p, "/www/large", body) != nil {
			return 1
		}
		master, err := p.Spawn("/bin/httpd-fleet", []string{"/bin/httpd-fleet",
			string(fleetAddr), strconv.Itoa(fleetWorkers), "/www", "sb=" + fleetBoard,
			// Teardown only: the master's final reap wait always runs to
			// this cap, and the default 2 s would triple a round's length.
			"drain_ms=100"})
		if err != nil {
			return 1
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			if boardField(readSmallFile(p, fleetBoard), "alive") == fleetWorkers {
				break
			}
			if time.Now().After(deadline) {
				return 1
			}
			time.Sleep(time.Millisecond)
		}

		// Per-connection plans drawn before the threads start, so the
		// round's input does not depend on how the threads interleave.
		perOpen := r.openUnits / fleetConns
		perClosed := r.units / fleetConns
		type plan struct {
			large []bool
			phase time.Duration
		}
		interval := time.Second * fleetConns / fleetRate
		var plans [fleetConns]plan
		for c := range plans {
			plans[c].large = make([]bool, fleetWarmup+perOpen+perClosed)
			for i := range plans[c].large {
				plans[c].large[i] = r.rng.Intn(fleetLargeIn) == 0
			}
			plans[c].phase = time.Duration(r.rng.Int63n(int64(interval)))
		}
		warmed := newRendezvous(fleetConns)
		opened := newRendezvous(fleetConns)
		finished := newRendezvous(fleetConns)
		var openStart time.Time
		threads := make(chan struct{}, fleetConns)
		for c := 0; c < fleetConns; c++ {
			c := c
			if err := threader.SpawnThread(func() {
				defer func() { threads <- struct{}{} }()
				d := r.drive(p)
				buf := make([]byte, fleetLargeLen+32)
				pl := plans[c]
				get := func(n, i int) {
					if pl.large[i] {
						fetch(d, n, "/large", fleetLargeLen, buf)
					} else {
						fetch(d, n, "/small", fleetSmallLen, buf)
					}
				}
				i := 0
				for ; i < fleetWarmup; i++ {
					d.begin(-1 - i)
					get(-1-i, i)
					d.end(0)
				}
				warmed.meet(func() {
					r.startTimed()
					openStart = time.Now().Add(time.Millisecond)
				})
				// Phase A, open loop: request k of this connection is due
				// at a fixed time whether or not the previous one is back.
				for k := 0; k < perOpen; k, i = k+1, i+1 {
					due := openStart.Add(pl.phase + time.Duration(k)*interval)
					waitUntil(due)
					n := c*perOpen + k
					r.noteLate(time.Since(due))
					d.beginAt(n, due)
					get(n, i)
					if lat := d.end(countOpenLoop); lat > fleetLatencyOK {
						r.tooSlow(n, lat)
					}
				}
				// Phase B, closed loop on the same connections.
				opened.meet(func() { r.closedStart = time.Now() })
				for k := 0; k < perClosed; k, i = k+1, i+1 {
					n := r.openUnits + c*perClosed + k
					d.begin(n)
					get(n, i)
					d.end(countLatency | countThroughput)
				}
				finished.meet(r.stopTimed)
			}); err != nil {
				return 1
			}
		}
		for c := 0; c < fleetConns; c++ {
			<-threads
		}
		r.board = readSmallFile(p, fleetBoard)
		r.park()
		if writeWholeFile(p, fleetBoard+".stop", []byte("stop\n")) != nil {
			return 1
		}
		if res, err := p.Wait(master); err != nil || res.ExitCode != 0 {
			return 1
		}
		return 0
	}
}
