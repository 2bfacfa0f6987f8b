package liblinux

import (
	"encoding/binary"
	"math"
	"slices"
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
// child and what migration writes to disk (§5, §6.1): the four control
// sections of the wire format, which fork streams one by one and a
// migration image stores back to back. Memory page contents travel
// separately: copy-on-write via bulk IPC for fork, inline in the image's
// pages section for cross-machine migration.
type Checkpoint struct {
	ckMetaSection
	ckMemSection
	ckFDSection
	ckSigSection

	// Pages is the pages section of a decoded migration image; each Data
	// aliases the image bytes it was decoded from.
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

// checkpointMeta captures everything but memory contents and the PID pair
// (the caller decides whose checkpoint this is); stream handles to be
// inherited are returned for out-of-band transfer.
func (p *Process) checkpointMeta() (*Checkpoint, []*host.Handle, error) {
	ck := new(Checkpoint)
	p.mu.Lock()
	ck.PGID = p.pgid
	ck.ParentAddr = p.helperAddr()
	ck.LeaderAddr = p.leaderAddrLocked()
	ck.ShardAddrs = p.shardAddrsLocked()
	ck.ProgramPath = p.programPath
	ck.Argv = append([]string(nil), p.argv...)
	ck.Cwd = p.cwd
	ck.Env = copyEnv(p.env)
	p.mu.Unlock()

	p.mm.mu.Lock()
	ck.Brk = p.mm.brk
	ck.BrkEnd = p.mm.brkEnd
	ck.Regions = append([]Region(nil), p.mm.mmaps...)
	p.mm.mu.Unlock()

	ck.Dispositions = p.sig.dispositions()

	var handles []*host.Handle
	for _, open := range p.fds.snapshot() {
		d := open.d
		fc := FDCheckpoint{FD: open.fd, Kind: int(d.kind), Path: d.path, Flags: d.flags, HandleIndex: -1}
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

// ============================================================
// Fork checkpoint streaming: the chunked section protocol.
//
// Fork does not serialize one monolithic blob. The parent streams the
// checkpoint as typed sections over the initial stream — [kind:1][len:4]
// [payload] — while a producer goroutine commits memory batches into the
// bulk-IPC store, and the child overlaps its restore: as soon as the
// memory section arrives it starts allocating regions and blocking on the
// store for batches (one batch per region, in section order) on a mapper
// goroutine, while the main restore path keeps consuming FD and signal
// sections. Serialization, bulk-IPC transfer, and restore all run
// concurrently instead of stop-the-world (see DESIGN.md, "Fork pipeline").
// ============================================================

// Section kinds, on the initial stream and in a migration image.
const (
	secMeta   = 1 // ckMetaSection: identity, addresses, program, env
	secMemory = 2 // ckMemSection: brk + regions; store batches follow 1:1
	secFDs    = 3 // ckFDSection: descriptor table; handles follow out-of-band
	secSig    = 4 // ckSigSection: signal dispositions
	secZygote = 5 // cached zygote template (spawn fast path; replaces secMemory)
	secDone   = 6 // end of checkpoint (stream only)
	secPages  = 7 // page contents (migration image only)
)

// sectionHeader is the size of the frame in front of every payload.
const sectionHeader = 5

// maxControlSection caps the payload of every section but secPages. A
// length field is read before its payload exists, so it is a claim, not a
// fact: nothing is allocated for a claim above the cap.
const maxControlSection = 1 << 20

// section is one unit of the wire format (DESIGN.md, "Fork pipeline", has
// the field table). Integers are varints (zig-zag when signed), strings and
// lists carry a uvarint length or count, and maps are written in ascending
// key order, so equal state encodes to equal bytes. decode answers EINVAL to
// a truncated payload, trailing bytes, a count the payload is too short to
// hold, and unsorted or repeated map keys; it never panics.
type section interface {
	appendTo(b []byte) []byte
	decode(payload []byte) error
}

// ckMetaSection is the identity/dynamic-state section. Everything here is
// re-captured fresh on every fork and spawn — never cached — so a
// zygote-cached spawn still observes current env, cwd, and addresses.
type ckMetaSection struct {
	PID, PPID, PGID        int64
	ParentAddr, LeaderAddr string
	// ShardAddrs is the per-shard coordinator address table when the parent
	// runs on a sharded namespace plane (nil / single entry = classic
	// one-coordinator topology; the child then joins via LeaderAddr).
	ShardAddrs  []string
	ProgramPath string
	Argv        []string
	Cwd         string
	Env         map[string]string
}

func (m *ckMetaSection) appendTo(b []byte) []byte {
	b = binary.AppendVarint(b, m.PID)
	b = binary.AppendVarint(b, m.PPID)
	b = binary.AppendVarint(b, m.PGID)
	b = appendString(b, m.ParentAddr)
	b = appendString(b, m.LeaderAddr)
	b = appendStrings(b, m.ShardAddrs)
	b = appendString(b, m.ProgramPath)
	b = appendStrings(b, m.Argv)
	b = appendString(b, m.Cwd)
	keys := make([]string, 0, len(m.Env))
	for k := range m.Env {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(appendString(b, k), m.Env[k])
	}
	return b
}

func (m *ckMetaSection) decode(payload []byte) error {
	r := ckReader{b: payload}
	*m = ckMetaSection{
		PID: r.varint(), PPID: r.varint(), PGID: r.varint(),
		ParentAddr: r.str(), LeaderAddr: r.str(), ShardAddrs: r.strs(),
		ProgramPath: r.str(), Argv: r.strs(), Cwd: r.str(),
	}
	if n := r.count(2); n > 0 {
		m.Env = make(map[string]string, n)
		for prev := ""; n > 0; n-- {
			k := r.str()
			if len(m.Env) > 0 && k <= prev {
				r.fail()
			}
			m.Env[k], prev = r.str(), k
		}
	}
	return r.end()
}

// ckMemSection describes the memory image; the page contents travel
// out-of-band through the bulk-IPC store, one batch per region in order.
type ckMemSection struct {
	Brk, BrkEnd uint64
	Regions     []Region
}

func (m *ckMemSection) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Brk)
	b = binary.AppendUvarint(b, m.BrkEnd)
	b = binary.AppendUvarint(b, uint64(len(m.Regions)))
	for _, r := range m.Regions {
		b = binary.AppendUvarint(b, r.Start)
		b = binary.AppendUvarint(b, r.End)
		b = binary.AppendVarint(b, int64(r.Prot))
	}
	return b
}

func (m *ckMemSection) decode(payload []byte) error {
	r := ckReader{b: payload}
	*m = ckMemSection{Brk: r.uvarint(), BrkEnd: r.uvarint()}
	if n := r.count(3); n > 0 {
		m.Regions = make([]Region, n)
		for i := range m.Regions {
			m.Regions[i] = Region{Start: r.uvarint(), End: r.uvarint(), Prot: int(r.varint())}
		}
	}
	return r.end()
}

type ckFDSection struct{ FDs []FDCheckpoint }

func (f *ckFDSection) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(f.FDs)))
	for i := range f.FDs {
		fc := &f.FDs[i]
		b = binary.AppendVarint(b, int64(fc.FD))
		b = binary.AppendVarint(b, int64(fc.Kind))
		b = appendString(b, fc.Path)
		b = binary.AppendVarint(b, int64(fc.Flags))
		b = binary.AppendVarint(b, fc.Pos)
		b = binary.AppendVarint(b, int64(fc.HandleIndex))
	}
	return b
}

func (f *ckFDSection) decode(payload []byte) error {
	r := ckReader{b: payload}
	f.FDs = nil
	if n := r.count(6); n > 0 {
		f.FDs = make([]FDCheckpoint, n)
		for i := range f.FDs {
			f.FDs[i] = FDCheckpoint{
				FD: int(r.varint()), Kind: int(r.varint()), Path: r.str(),
				Flags: int(r.varint()), Pos: r.varint(), HandleIndex: int(r.varint()),
			}
		}
	}
	return r.end()
}

type ckSigSection struct{ Dispositions map[api.Signal]string }

func (g *ckSigSection) appendTo(b []byte) []byte {
	sigs := make([]api.Signal, 0, len(g.Dispositions))
	for sig := range g.Dispositions {
		sigs = append(sigs, sig)
	}
	slices.Sort(sigs)
	b = binary.AppendUvarint(b, uint64(len(sigs)))
	for _, sig := range sigs {
		b = appendString(binary.AppendVarint(b, int64(sig)), g.Dispositions[sig])
	}
	return b
}

func (g *ckSigSection) decode(payload []byte) error {
	r := ckReader{b: payload}
	g.Dispositions = nil
	if n := r.count(2); n > 0 {
		g.Dispositions = make(map[api.Signal]string, n)
		for prev := api.Signal(0); n > 0; n-- {
			sig := api.Signal(r.varint())
			if len(g.Dispositions) > 0 && sig <= prev {
				r.fail()
			}
			g.Dispositions[sig], prev = r.str(), sig
		}
	}
	return r.end()
}

// zygoteTemplate is the cached static portion of a spawn checkpoint: the
// post-exec memory layout of a program image, captured once per program
// path ("little more than a guest memory dump" taken once, §7.3). A spawned
// child resets its image anyway, so the template pins the fresh layout and
// the parent skips serializing and transferring memory entirely.
type zygoteTemplate struct {
	ProgramPath string
	Brk, BrkEnd uint64
}

func (z *zygoteTemplate) appendTo(b []byte) []byte {
	b = appendString(b, z.ProgramPath)
	b = binary.AppendUvarint(b, z.Brk)
	return binary.AppendUvarint(b, z.BrkEnd)
}

func (z *zygoteTemplate) decode(payload []byte) error {
	r := ckReader{b: payload}
	*z = zygoteTemplate{ProgramPath: r.str(), Brk: r.uvarint(), BrkEnd: r.uvarint()}
	return r.end()
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// ckReader consumes a payload field by field. The first malformed field
// latches bad and empties the input, so a decoder reads every field
// unconditionally and asks once, at end, whether all of it was there.
type ckReader struct {
	b   []byte
	bad bool
}

func (r *ckReader) fail() { r.b, r.bad = nil, true }

func (r *ckReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *ckReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// take returns the next n bytes, aliasing the payload.
func (r *ckReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *ckReader) str() string { return string(r.take(r.uvarint())) }

// count reads an element count and refuses one that the rest of the payload
// is too short to hold at minBytes per element, so a hostile count cannot
// size an allocation beyond what the input's own length justifies.
func (r *ckReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *ckReader) strs() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// end reports whether the payload decoded cleanly and completely.
func (r *ckReader) end() error {
	if r.bad || len(r.b) != 0 {
		return api.EINVAL
	}
	return nil
}

// appendSection frames sec onto b as [kind][len:4][payload]. A nil sec is
// an empty payload (secDone).
func appendSection(b []byte, kind byte, sec section) ([]byte, error) {
	at := len(b)
	b = append(b, kind, 0, 0, 0, 0)
	if sec != nil {
		b = sec.appendTo(b)
	}
	n := len(b) - at - sectionHeader
	if n > maxControlSection {
		// The receiver would refuse it; say why on this side.
		return nil, api.E2BIG
	}
	binary.LittleEndian.PutUint32(b[at+1:], uint32(n))
	return b, nil
}

// writeSection frames one checkpoint section on the initial stream.
func writeSection(s *host.Stream, kind byte, sec section) error {
	b, err := appendSection(make([]byte, 0, 512), kind, sec)
	if err != nil {
		return err
	}
	_, err = s.Write(b)
	return err
}

func readSection(s *host.Stream) (byte, []byte, error) {
	var hdr [sectionHeader]byte
	if err := readFull(s, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxControlSection {
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
	defer p.rt.stage("image-map")()
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
	defer rt.stage("child-restore")()
	kind, payload, err := readSection(initial)
	if err != nil {
		return nil, err
	}
	var tmpl *zygoteTemplate
	if kind == secZygote {
		tmpl = new(zygoteTemplate)
		if err := tmpl.decode(payload); err != nil {
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
	if err := meta.decode(payload); err != nil {
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
			if err := mem.decode(payload); err != nil {
				return failMap(err)
			}
			child.mm.restore(mem.Brk, mem.BrkEnd, mem.Regions)
			if store != nil {
				regions := mem.memRegions()
				mapStarted = true
				go func() { mapDone <- child.mapImage(store, regions) }()
			}
		case secFDs:
			var fds ckFDSection
			if err := fds.decode(payload); err != nil {
				return failMap(err)
			}
			if err := child.restoreFDs(fds.FDs, initial); err != nil {
				return failMap(err)
			}
		case secSig:
			var sig ckSigSection
			if err := sig.decode(payload); err != nil {
				return failMap(err)
			}
			child.sig.restoreDispositions(sig.Dispositions)
		case secDone:
			if len(payload) != 0 {
				return failMap(api.EINVAL)
			}
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
	// meta.PID came out of the parent's leader-granted batch (AllocPID), so
	// the helper joins without contacting any shard leader.
	shardAddrs := meta.ShardAddrs
	if len(shardAddrs) <= 1 {
		shardAddrs = []string{meta.LeaderAddr}
	}
	stageDone := rt.stage("helper-join")
	helper, err := ipc.NewForkedMember(c, child.svc(), meta.PID, shardAddrs)
	stageDone()
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

// memRegions lists the memory areas the section describes: the break
// segment plus the anonymous mappings.
func (m *ckMemSection) memRegions() []Region {
	var out []Region
	if m.BrkEnd > brkBase {
		out = append(out, Region{Start: brkBase, End: m.BrkEnd, Prot: api.ProtRead | api.ProtWrite})
	}
	return append(out, m.Regions...)
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
	p.applyMeta(&ck.ckMetaSection)
	p.mm.restore(ck.Brk, ck.BrkEnd, ck.Regions)
	p.sig.restoreDispositions(ck.Dispositions)
	return p.restoreFDs(ck.FDs, initial)
}

// restoreFDs receives inherited stream handles in order and rebuilds the
// descriptor table.
func (p *Process) restoreFDs(fds []FDCheckpoint, initial *host.Stream) error {
	maxIdx := -1
	for _, fc := range fds {
		// The sender numbers handles densely from 0, one per stream-backed
		// descriptor and none for any other kind, and a migration image
		// (no initial stream) has none to receive. A table that says
		// otherwise is malformed.
		streamBacked := fdKind(fc.Kind) == fdPipe || fdKind(fc.Kind) == fdSocket
		if fc.HandleIndex < -1 || fc.HandleIndex >= len(fds) ||
			streamBacked != (fc.HandleIndex >= 0) || (streamBacked && initial == nil) {
			return api.EINVAL
		}
		maxIdx = max(maxIdx, fc.HandleIndex)
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
//
// An image is the fork wire format at rest: "GRCK", a version byte, a
// flags byte (bit 0: incremental), the four control sections in stream
// order — meta, memory, fds, sig — and one secPages section, each framed
// [kind:1][len:4][payload] as on the stream. The pages payload is a run of
// [uvarint address][PageSize bytes] records filling the section exactly;
// nothing follows it.
// ============================================================

const (
	imageMagic       = "GRCK"
	imageVersion     = 1
	imageIncremental = 1 << 0
)

// kindSection pairs a section with its kind byte.
type kindSection struct {
	kind byte
	sec  section
}

// controlSections lists the image's control sections in wire order.
func (ck *Checkpoint) controlSections() [4]kindSection {
	return [4]kindSection{
		{secMeta, &ck.ckMetaSection}, {secMemory, &ck.ckMemSection},
		{secFDs, &ck.ckFDSection}, {secSig, &ck.ckSigSection},
	}
}

// beginImage appends everything up to and including the pages section's
// frame, whose length endImage fills in once the pages are in.
func (ck *Checkpoint) beginImage(b []byte) ([]byte, error) {
	flags := byte(0)
	if ck.Incremental {
		flags = imageIncremental
	}
	b = append(append(b, imageMagic...), imageVersion, flags)
	for _, s := range ck.controlSections() {
		var err error
		if b, err = appendSection(b, s.kind, s.sec); err != nil {
			return nil, err
		}
	}
	return append(b, secPages, 0, 0, 0, 0), nil
}

// appendImagePage appends one page record and returns, besides the grown
// image, the record's PageSize data bytes for the caller to fill in place.
func appendImagePage(b []byte, addr uint64) (image, data []byte) {
	b = binary.AppendUvarint(b, addr)
	n := len(b)
	b = slices.Grow(b, host.PageSize)[:n+host.PageSize]
	return b, b[n:]
}

// endImage closes the pages section opened by beginImage at offset pagesAt.
func endImage(b []byte, pagesAt int) ([]byte, error) {
	n := len(b) - pagesAt - sectionHeader
	if n > math.MaxUint32 {
		return nil, api.EFBIG
	}
	binary.LittleEndian.PutUint32(b[pagesAt+1:], uint32(n))
	return b, nil
}

// imageSection splits the next framed section off an image, checking its
// kind and that its claimed length is within both limit and the bytes left.
func imageSection(b []byte, kind byte, limit int) (payload, rest []byte, err error) {
	if len(b) < sectionHeader || b[0] != kind {
		return nil, nil, api.EINVAL
	}
	n := uint64(binary.LittleEndian.Uint32(b[1:]))
	b = b[sectionHeader:]
	if n > uint64(limit) || n > uint64(len(b)) {
		return nil, nil, api.EINVAL
	}
	return b[:n], b[n:], nil
}

// decodeImage parses a migration image. Anything but a well-formed image of
// this version — wrong magic, unknown flag, a section missing, out of order,
// over its cap or malformed, a page address off a page boundary, a short
// page, bytes after the pages section — is EINVAL.
func decodeImage(blob []byte) (*Checkpoint, error) {
	const header = len(imageMagic) + 2
	if len(blob) < header || string(blob[:len(imageMagic)]) != imageMagic ||
		blob[header-2] != imageVersion || blob[header-1]&^imageIncremental != 0 {
		return nil, api.EINVAL
	}
	ck := &Checkpoint{Incremental: blob[header-1]&imageIncremental != 0}
	rest := blob[header:]
	for _, s := range ck.controlSections() {
		payload, after, err := imageSection(rest, s.kind, maxControlSection)
		if err != nil {
			return nil, err
		}
		if err := s.sec.decode(payload); err != nil {
			return nil, err
		}
		rest = after
	}
	payload, rest, err := imageSection(rest, secPages, math.MaxUint32)
	if err != nil || len(rest) != 0 {
		return nil, api.EINVAL
	}
	r := ckReader{b: payload}
	if n := len(payload) / (host.PageSize + 1); n > 0 {
		ck.Pages = make([]PageDump, 0, n)
	}
	for len(r.b) > 0 {
		pg := PageDump{Addr: r.uvarint(), Data: r.take(host.PageSize)}
		if pg.Addr&(host.PageSize-1) != 0 {
			r.fail()
		}
		ck.Pages = append(ck.Pages, pg)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return ck, nil
}

// checkpointImage encodes this process as a migration image holding every
// resident page of its checkpointed regions, or (incremental) only those
// dirtied since the previous image. Page contents are read straight into
// the image. Either kind resets the dirty set: it is the baseline of the
// next delta.
func (p *Process) checkpointImage(incremental bool) ([]byte, error) {
	ck, _, err := p.checkpointMeta()
	if err != nil {
		return nil, err
	}
	ck.PID, ck.PPID, ck.Incremental = p.pid, p.ppid, incremental
	// Streams cannot migrate across machines; drop stream-backed FDs.
	ck.FDs = slices.DeleteFunc(ck.FDs, func(fc FDCheckpoint) bool { return fc.HandleIndex != -1 })

	as := p.pal.Proc().AS
	pagesOf := as.TouchedPages
	if incremental {
		pagesOf = as.DirtyPages
	}
	var idxs []uint64
	for _, r := range ck.memRegions() {
		part, _ := pagesOf(r.Start, r.End)
		idxs = append(idxs, part...)
	}
	b, err := ck.beginImage(make([]byte, 0, 1024+len(idxs)*(host.PageSize+binary.MaxVarintLen64)))
	if err != nil {
		return nil, err
	}
	pagesAt := len(b) - sectionHeader
	for _, idx := range idxs {
		addr := idx << host.PageShift
		grown, data := appendImagePage(b, addr)
		if as.Read(addr, data) != nil {
			continue // unmapped since the scan: not part of the image
		}
		b = grown
	}
	as.ResetDirty()
	return endImage(b, pagesAt)
}

// CheckpointToBytes produces a self-contained migration image: libOS
// metadata plus all resident memory pages. "Little more than a guest
// memory dump" (§7.3).
func (p *Process) CheckpointToBytes() ([]byte, error) { return p.checkpointImage(false) }

// CheckpointDeltaBytes produces an incremental migration image: the same
// metadata, but only pages dirtied since the last CheckpointToBytes or
// CheckpointDeltaBytes call. Checkpoint cost therefore scales with the
// write working set, not the resident set — the dirty-fraction sweep in
// the benchmarks measures exactly this. The image applies over a restored
// base; it is not self-contained.
func (p *Process) CheckpointDeltaBytes() ([]byte, error) { return p.checkpointImage(true) }

// ResumeFromBytes reconstructs a checkpointed process as the root of a
// fresh sandbox on this runtime — the receive side of migration. The
// resumed program is re-entered from the top with a RESUMED=1 environment
// marker (Go stacks cannot be serialized; see DESIGN.md).
func (r *Runtime) ResumeFromBytes(man *monitor.Manifest, blob []byte) (*LaunchResult, error) {
	ck, err := decodeImage(blob)
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
	for _, reg := range ck.memRegions() {
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
