package liblinux

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/monitor"
	"graphene/internal/pal"
)

// FDCheckpoint serializes one open descriptor. File-backed descriptors are
// reopened by path; stream-backed ones reference the i-th handle passed
// out-of-band over the initial stream (the handle-inheritance ABI, §5).
type FDCheckpoint struct {
	FD          int
	Kind        int
	Path        string
	Flags       int
	Pos         int64
	HandleIndex int // -1 for path-reopened descriptors
}

// Checkpoint is the serializable libOS state — what fork ships to the
// child and what migration writes to disk (§5, §6.1). Memory page
// contents travel separately: copy-on-write via bulk IPC for fork, inline
// in Pages for cross-machine migration.
type Checkpoint struct {
	PID        int64
	PPID       int64
	PGID       int64
	ParentAddr string
	LeaderAddr string
	// ShardAddrs is the per-shard coordinator address table when the parent
	// runs on a sharded namespace plane (nil / single entry = classic
	// one-coordinator topology; the child then joins via LeaderAddr).
	ShardAddrs  []string
	ProgramPath string
	Argv        []string
	Cwd         string
	Env         map[string]string

	Brk     uint64
	BrkEnd  uint64
	Regions []Region

	FDs          []FDCheckpoint
	Dispositions map[api.Signal]string

	// Pages carries memory contents for migration checkpoints only.
	Pages []PageDump

	// Incremental marks a delta image: Pages holds only pages dirtied
	// since the previous snapshot, to be applied over a restored base.
	Incremental bool
}

// PageDump is one resident page in a migration checkpoint.
type PageDump struct {
	Addr uint64
	Data []byte
}

// checkpointMeta captures everything but memory contents; stream handles
// to be inherited are returned for out-of-band transfer.
func (p *Process) checkpointMeta() (*Checkpoint, []*host.Handle, error) {
	p.mu.Lock()
	ck := &Checkpoint{
		PGID:        p.pgid,
		ParentAddr:  p.helperAddr(),
		LeaderAddr:  p.leaderAddrLocked(),
		ShardAddrs:  p.shardAddrsLocked(),
		ProgramPath: p.programPath,
		Argv:        append([]string(nil), p.argv...),
		Cwd:         p.cwd,
		Env:         copyEnv(p.env),
	}
	p.mu.Unlock()

	p.mm.mu.Lock()
	ck.Brk = p.mm.brk
	ck.BrkEnd = p.mm.brkEnd
	ck.Regions = append([]Region(nil), p.mm.mmaps...)
	p.mm.mu.Unlock()

	ck.Dispositions = p.sig.dispositions()

	var handles []*host.Handle
	for fd, d := range p.fds.snapshot() {
		fc := FDCheckpoint{FD: fd, Kind: int(d.kind), Path: d.path, Flags: d.flags, HandleIndex: -1}
		d.mu.Lock()
		fc.Pos = d.pos
		d.mu.Unlock()
		switch d.kind {
		case fdPipe, fdSocket:
			fc.HandleIndex = len(handles)
			handles = append(handles, d.handle)
		case fdListener:
			// Listeners are not inherited (matching accept-after-fork
			// semantics would need handle duplication; servers accept in
			// the parent and pass connections instead).
			continue
		}
		ck.FDs = append(ck.FDs, fc)
	}
	return ck, handles, nil
}

func (p *Process) helperAddr() string {
	if p.helper != nil {
		return p.helper.Addr
	}
	return ""
}

// shardAddrsLocked snapshots the parent helper's per-shard leader table
// for checkpoint capture; nil on the classic single-coordinator plane.
func (p *Process) shardAddrsLocked() []string {
	if p.helper != nil && p.helper.Shards() > 1 {
		return p.helper.ShardLeaderAddrs()
	}
	return nil
}

func (p *Process) leaderAddrLocked() string {
	if p.helper != nil {
		if a := p.helper.LeaderAddr(); a != "" {
			return a
		}
	}
	return p.leaderAddr
}

func copyEnv(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// encodeCheckpoint serializes a checkpoint with gob.
func encodeCheckpoint(ck *Checkpoint) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		panic("liblinux: checkpoint encode: " + err.Error())
	}
	return buf.Bytes()
}

func decodeCheckpoint(blob []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ck); err != nil {
		return nil, api.EINVAL
	}
	return &ck, nil
}

// ============================================================
// Fork checkpoint streaming: the chunked section protocol.
//
// Fork no longer serializes one monolithic blob. The parent streams the
// checkpoint as typed sections over the initial stream — [kind:1][len:4]
// [payload] — while a producer goroutine commits memory batches into the
// bulk-IPC store, and the child overlaps its restore: as soon as the
// memory section arrives it starts allocating regions and blocking on the
// store for batches (one batch per region, in section order) on a mapper
// goroutine, while the main restore path keeps consuming FD and signal
// sections. Serialization, bulk-IPC transfer, and restore all run
// concurrently instead of stop-the-world (see DESIGN.md, "Fork pipeline").
// ============================================================

// Section kinds on the initial stream.
const (
	secMeta   = 1 // ckMetaSection: identity, addresses, program, env
	secMemory = 2 // ckMemSection: brk + regions; store batches follow 1:1
	secFDs    = 3 // ckFDSection: descriptor table; handles follow out-of-band
	secSig    = 4 // ckSigSection: signal dispositions
	secZygote = 5 // cached zygote template (spawn fast path; replaces secMemory)
	secDone   = 6 // end of checkpoint
)

// ckMetaSection is the identity/dynamic-state section. Everything here is
// re-captured fresh on every fork and spawn — never cached — so a
// zygote-cached spawn still observes current env, cwd, and addresses.
type ckMetaSection struct {
	PID, PPID, PGID        int64
	ParentAddr, LeaderAddr string
	ShardAddrs             []string
	ProgramPath            string
	Argv                   []string
	Cwd                    string
	Env                    map[string]string
}

// ckMemSection describes the memory image; the page contents travel
// out-of-band through the bulk-IPC store, one batch per region in order.
type ckMemSection struct {
	Brk, BrkEnd uint64
	Regions     []Region
}

type ckFDSection struct{ FDs []FDCheckpoint }

type ckSigSection struct{ Dispositions map[api.Signal]string }

// zygoteTemplate is the cached static portion of a spawn checkpoint: the
// post-exec memory layout of a program image, captured once per program
// path ("little more than a guest memory dump" taken once, §7.3). A spawned
// child resets its image anyway, so the template pins the fresh layout and
// the parent skips serializing and transferring memory entirely.
type zygoteTemplate struct {
	ProgramPath string
	Brk, BrkEnd uint64
}

func gobBytes(v interface{}) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic("liblinux: section encode: " + err.Error())
	}
	return buf.Bytes()
}

func gobDecode(blob []byte, v interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(v); err != nil {
		return api.EINVAL
	}
	return nil
}

// writeSection frames one checkpoint section on the initial stream.
func writeSection(s *host.Stream, kind byte, payload []byte) error {
	hdr := make([]byte, 5, 5+len(payload))
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	_, err := s.Write(append(hdr, payload...))
	return err
}

func readSection(s *host.Stream) (byte, []byte, error) {
	var hdr [5]byte
	if err := readFull(s, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > 64<<20 {
		return 0, nil, api.EINVAL
	}
	payload := make([]byte, n)
	if err := readFull(s, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

func readFull(s *host.Stream, buf []byte) error {
	off := 0
	for off < len(buf) {
		n, err := s.Read(buf[off:])
		if err != nil {
			return err
		}
		if n == 0 {
			return api.EPIPE
		}
		off += n
	}
	return nil
}

// mapTimeout bounds how long the child waits for the parent to commit the
// next memory batch before declaring the fork dead.
const mapTimeout = 10 * time.Second

// mapImage allocates each region and blocks on the store for its batch —
// the consumer half of the fork pipeline, run on a goroutine while the
// main restore path consumes later sections.
func (p *Process) mapImage(store *host.Handle, regions []Region) error {
	for _, r := range regions {
		if _, err := p.pal.DkVirtualMemoryAlloc(r.Start, r.End-r.Start, r.Prot); err != nil {
			return err
		}
		if _, err := p.pal.DkPhysicalMemoryMapWait(store, r.Start, mapTimeout); err != nil {
			return err
		}
	}
	return nil
}

// restoreChild runs in the freshly created picoprocess: it consumes the
// checkpoint sections from the initial stream as they arrive, rebuilding
// libOS state incrementally. Memory mapping from the bulk-IPC store runs
// on a separate goroutine from the moment the memory section lands, so
// page transfer overlaps descriptor and signal restore.
func restoreChild(rt *Runtime, c *pal.PAL, initial *host.Stream, store *host.Handle, childMain func(*Process) int) (*Process, error) {
	kind, payload, err := readSection(initial)
	if err != nil {
		return nil, err
	}
	var tmpl *zygoteTemplate
	if kind == secZygote {
		tmpl = new(zygoteTemplate)
		if err := gobDecode(payload, tmpl); err != nil {
			return nil, err
		}
		if kind, payload, err = readSection(initial); err != nil {
			return nil, err
		}
	}
	if kind != secMeta {
		return nil, api.EINVAL
	}
	var meta ckMetaSection
	if err := gobDecode(payload, &meta); err != nil {
		return nil, err
	}
	if tmpl != nil && tmpl.ProgramPath != meta.ProgramPath {
		// A stale template slipped past invalidation; refuse rather than
		// resume the wrong image.
		return nil, api.EINVAL
	}
	child, err := newProcess(rt, c, meta.PID, meta.PPID, meta.ParentAddr, meta.LeaderAddr)
	if err != nil {
		return nil, err
	}
	child.applyMeta(&meta)

	mapDone := make(chan error, 1)
	mapStarted := false
	// failMap releases the pipeline when the restore dies after the mapper
	// goroutine has started: closing the store unblocks its MapNext wait
	// and drops the queued batches' page references, and draining mapDone
	// reaps the goroutine — otherwise it would keep allocating regions and
	// blocking up to mapTimeout per region inside an abandoned child.
	failMap := func(err error) (*Process, error) {
		if mapStarted {
			_ = c.DkObjectClose(store)
			<-mapDone
		}
		return nil, err
	}
	for done := false; !done; {
		kind, payload, err := readSection(initial)
		if err != nil {
			return failMap(err)
		}
		switch kind {
		case secMemory:
			var mem ckMemSection
			if err := gobDecode(payload, &mem); err != nil {
				return failMap(err)
			}
			child.mm.restore(mem.Brk, mem.BrkEnd, mem.Regions)
			if store != nil {
				regions := memRegions(mem.BrkEnd, mem.Regions)
				mapStarted = true
				go func() { mapDone <- child.mapImage(store, regions) }()
			}
		case secFDs:
			var fds ckFDSection
			if err := gobDecode(payload, &fds); err != nil {
				return failMap(err)
			}
			if err := child.restoreFDs(fds.FDs, initial); err != nil {
				return failMap(err)
			}
		case secSig:
			var sig ckSigSection
			if err := gobDecode(payload, &sig); err != nil {
				return failMap(err)
			}
			child.sig.restoreDispositions(sig.Dispositions)
		case secDone:
			done = true
		default:
			return failMap(api.EINVAL)
		}
	}
	if mapStarted {
		err := <-mapDone
		// The image is mapped, so the store has served its purpose: closing
		// it takes it out of the kernel's registry. On failure the same
		// close releases the batches the parent committed past the failure
		// point, whose page references nobody will map.
		_ = c.DkObjectClose(store)
		if err != nil {
			return nil, err
		}
	}
	var helper *ipc.Helper
	if len(meta.ShardAddrs) > 1 {
		helper, err = ipc.NewShardMember(c, child.svc(), meta.PID, meta.ShardAddrs)
	} else {
		helper, err = ipc.NewMember(c, child.svc(), meta.PID, meta.LeaderAddr)
	}
	if err != nil {
		return nil, err
	}
	child.helper = helper
	child.childMain = childMain
	// A forked child inherits its parent's process group.
	if meta.PGID != 0 {
		child.mu.Lock()
		child.pgid = meta.PGID
		child.mu.Unlock()
		_ = helper.JoinGroup(meta.PGID, meta.PID)
	}
	return child, nil
}

// regionsOf lists the memory areas a checkpoint describes.
func regionsOf(ck *Checkpoint) []Region {
	return memRegions(ck.BrkEnd, ck.Regions)
}

// memRegions lists the memory areas of a checkpoint: the break segment
// plus the anonymous mappings.
func memRegions(brkEnd uint64, mmaps []Region) []Region {
	var out []Region
	if brkEnd > brkBase {
		out = append(out, Region{Start: brkBase, End: brkEnd, Prot: api.ProtRead | api.ProtWrite})
	}
	return append(out, mmaps...)
}

// applyMeta installs the dynamic identity state from a meta section.
func (p *Process) applyMeta(m *ckMetaSection) {
	p.mu.Lock()
	p.cwd = m.Cwd
	p.env = copyEnv(m.Env)
	p.programPath = m.ProgramPath
	p.argv = append([]string(nil), m.Argv...)
	p.mu.Unlock()
}

// restoreState rebuilds descriptors, cwd, env, and signal dispositions from
// a monolithic checkpoint — the migration path (fork streams sections via
// restoreChild instead).
func (p *Process) restoreState(ck *Checkpoint, initial *host.Stream) error {
	p.applyMeta(&ckMetaSection{
		ProgramPath: ck.ProgramPath,
		Argv:        ck.Argv,
		Cwd:         ck.Cwd,
		Env:         ck.Env,
	})
	p.mm.restore(ck.Brk, ck.BrkEnd, ck.Regions)
	p.sig.restoreDispositions(ck.Dispositions)
	return p.restoreFDs(ck.FDs, initial)
}

// restoreFDs receives inherited stream handles in order and rebuilds the
// descriptor table.
func (p *Process) restoreFDs(fds []FDCheckpoint, initial *host.Stream) error {
	maxIdx := -1
	for _, fc := range fds {
		if fc.HandleIndex > maxIdx {
			maxIdx = fc.HandleIndex
		}
	}
	inherited := make([]*host.Handle, maxIdx+1)
	for i := 0; i <= maxIdx; i++ {
		h, err := initial.ReceiveHandle()
		if err != nil {
			return err
		}
		if h.Kind == host.HandleStream {
			// The sender transferred a reference with the handle; adopt
			// the endpoint into this picoprocess.
			p.pal.Kernel().AdoptStream(p.pal.Proc(), h.Stream)
		}
		inherited[i] = h
	}

	for _, fc := range fds {
		d := &fdesc{kind: fdKind(fc.Kind), path: fc.Path, flags: fc.Flags, pos: fc.Pos}
		switch d.kind {
		case fdFile:
			h, err := p.pal.DkStreamOpen("file:"+fc.Path, fc.Flags&^(api.OTrunc|api.OExcl|api.OCreate), 0)
			if err != nil {
				continue // file vanished; descriptor dropped
			}
			d.handle = h
		case fdPipe, fdSocket:
			d.handle = inherited[fc.HandleIndex]
		case fdTTY:
			h, err := p.pal.DkStreamOpen("dev:tty", 0, 0)
			if err != nil {
				continue
			}
			d.handle = h
		case fdProc:
			data, err := p.procRead(fc.Path)
			if err != nil {
				continue
			}
			d.data = data
		}
		p.fds.install(fc.FD, d)
	}
	return nil
}

// ============================================================
// Migration checkpoints (§6.1): checkpoint to bytes, resume anywhere.
// ============================================================

// CheckpointToBytes produces a self-contained migration image: libOS
// metadata plus all resident memory pages. "Little more than a guest
// memory dump" (§7.3).
func (p *Process) CheckpointToBytes() ([]byte, error) {
	ck, _, err := p.checkpointMeta()
	if err != nil {
		return nil, err
	}
	ck.PID = p.pid
	ck.PPID = p.ppid
	// Streams cannot migrate across machines; drop stream-backed FDs.
	var kept []FDCheckpoint
	for _, fc := range ck.FDs {
		if fc.HandleIndex == -1 {
			kept = append(kept, fc)
		}
	}
	ck.FDs = kept

	as := p.pal.Proc().AS
	for _, r := range regionsOf(ck) {
		idxs, _ := as.TouchedPages(r.Start, r.End)
		for _, idx := range idxs {
			data := make([]byte, host.PageSize)
			if err := as.Read(idx<<host.PageShift, data); err != nil {
				continue
			}
			ck.Pages = append(ck.Pages, PageDump{Addr: idx << host.PageShift, Data: data})
		}
	}
	// A full dump establishes the baseline for subsequent deltas.
	as.ResetDirty()
	return encodeCheckpoint(ck), nil
}

// CheckpointDeltaBytes produces an incremental migration image: the same
// metadata, but only pages dirtied since the last CheckpointToBytes or
// CheckpointDeltaBytes call. Checkpoint cost therefore scales with the
// write working set, not the resident set — the dirty-fraction sweep in
// the benchmarks measures exactly this. The image applies over a restored
// base; it is not self-contained.
func (p *Process) CheckpointDeltaBytes() ([]byte, error) {
	ck, _, err := p.checkpointMeta()
	if err != nil {
		return nil, err
	}
	ck.PID = p.pid
	ck.PPID = p.ppid
	ck.Incremental = true
	var kept []FDCheckpoint
	for _, fc := range ck.FDs {
		if fc.HandleIndex == -1 {
			kept = append(kept, fc)
		}
	}
	ck.FDs = kept

	as := p.pal.Proc().AS
	for _, r := range regionsOf(ck) {
		idxs, _ := as.DirtyPages(r.Start, r.End)
		for _, idx := range idxs {
			data := make([]byte, host.PageSize)
			if err := as.Read(idx<<host.PageShift, data); err != nil {
				continue
			}
			ck.Pages = append(ck.Pages, PageDump{Addr: idx << host.PageShift, Data: data})
		}
	}
	as.ResetDirty()
	return encodeCheckpoint(ck), nil
}

// ResumeFromBytes reconstructs a checkpointed process as the root of a
// fresh sandbox on this runtime — the receive side of migration. The
// resumed program is re-entered from the top with a RESUMED=1 environment
// marker (Go stacks cannot be serialized; see DESIGN.md).
func (r *Runtime) ResumeFromBytes(man *monitor.Manifest, blob []byte) (*LaunchResult, error) {
	ck, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	if ck.Incremental {
		// A delta applies over a restored base; it cannot boot a sandbox.
		return nil, api.EINVAL
	}
	prog, ok := r.lookupProgram(ck.ProgramPath)
	if !ok {
		return nil, api.ENOENT
	}
	proc, _, err := r.mon.Launch(man)
	if err != nil {
		return nil, err
	}
	c := pal.New(r.kernel, proc, r.mon)
	lib, err := newProcess(r, c, ck.PID, 0, "", "")
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	if err := lib.restoreState(ck, nil); err != nil {
		proc.Exit(127)
		return nil, err
	}
	// Re-create the memory image from the page dump.
	for _, reg := range regionsOf(ck) {
		if _, err := c.DkVirtualMemoryAlloc(reg.Start, reg.End-reg.Start, reg.Prot); err != nil {
			proc.Exit(127)
			return nil, err
		}
	}
	for _, pg := range ck.Pages {
		if err := c.MemWrite(pg.Addr, pg.Data); err != nil {
			proc.Exit(127)
			return nil, err
		}
	}
	helper, err := ipc.NewLeader(c, lib.svc(), ck.PID)
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	lib.helper = helper
	lib.Setenv("RESUMED", "1")

	res := &LaunchResult{Process: lib, Done: make(chan struct{})}
	proc.NewThread(func(tid int) {
		code := lib.runProgram(prog, ck.ProgramPath, ck.Argv)
		lib.doExit(code, 0)
		res.exitCode = lib.exitCode
		close(res.Done)
	})
	return res, nil
}

// Poll waits until one of the descriptors is readable, returning its
// index — the libOS's select/poll (LMbench's "select tcp" row).
func (p *Process) Poll(fds []int, timeoutMicros int64) (int, error) {
	handles := make([]*host.Handle, 0, len(fds))
	for _, fd := range fds {
		d, ok := p.fds.get(fd)
		if !ok || d.handle == nil {
			return -1, api.EBADF
		}
		handles = append(handles, d.handle)
	}
	timeout := time.Duration(timeoutMicros) * time.Microsecond
	return p.pal.DkObjectsWaitAny(handles, timeout)
}
