package liblinux

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/pal"
)

// sampleSections is one populated value of every control section, shared
// by the fuzz seeds, the benchmark and the allocation gate.
func sampleSections() map[byte]section {
	return map[byte]section{
		secMeta: &ckMetaSection{
			PID: 42, PPID: 1, PGID: 42,
			ParentAddr: "ipc:17", LeaderAddr: "ipc:3", ShardAddrs: []string{"ipc:3", "ipc:4"},
			ProgramPath: "/bin/sh", Argv: []string{"/bin/sh", "-c", "seq 64 | grep 3 | wc"}, Cwd: "/home",
			Env: map[string]string{"PATH": "/bin:/usr/bin", "HOME": "/home", "TERM": "vt100", "": "empty key"},
		},
		secMemory: &ckMemSection{Brk: brkBase + 12345, BrkEnd: brkBase + 16384, Regions: []Region{
			{Start: 0x7f00_0000_0000, End: 0x7f00_0080_0000, Prot: api.ProtRead | api.ProtWrite},
			{Start: 0x7f00_0100_0000, End: 0x7f00_0100_1000, Prot: api.ProtRead},
		}},
		secFDs: &ckFDSection{FDs: []FDCheckpoint{
			{FD: 0, Kind: int(fdTTY), HandleIndex: -1},
			{FD: 3, Kind: int(fdFile), Path: "/var/log/x", Flags: api.ORdWr | api.OAppend, Pos: 1 << 40, HandleIndex: -1},
			{FD: 4, Kind: int(fdPipe), HandleIndex: 0},
		}},
		secSig:    &ckSigSection{Dispositions: map[api.Signal]string{api.SIGPIPE: api.SigIgn, api.SIGCHLD: api.SigIgn}},
		secZygote: &zygoteTemplate{ProgramPath: "/bin/true", Brk: brkBase, BrkEnd: brkBase},
	}
}

// emptySection returns a zero section of the given kind, nil for a kind
// that carries no decodable payload.
func emptySection(kind byte) section {
	switch kind {
	case secMeta:
		return new(ckMetaSection)
	case secMemory:
		return new(ckMemSection)
	case secFDs:
		return new(ckFDSection)
	case secSig:
		return new(ckSigSection)
	case secZygote:
		return new(zygoteTemplate)
	}
	return nil
}

// FuzzCheckpointSection throws raw payloads at every section decoder: a
// decoder never panics and refuses with EINVAL only; what it accepts
// re-encodes to bytes that decode to the same value (decode∘encode is the
// identity) and re-encode to themselves (a fixed point).
func FuzzCheckpointSection(f *testing.F) {
	for kind, sec := range sampleSections() {
		enc := sec.appendTo(nil)
		f.Add(kind, enc)
		f.Add(kind, enc[:len(enc)/2])
		f.Add(kind, append(enc, 0))
	}
	f.Add(byte(secMeta), []byte{})
	f.Add(byte(secFDs), binary.AppendUvarint(nil, 1<<40)) // a count no payload could hold
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		sec := emptySection(kind)
		if sec == nil {
			return
		}
		if err := sec.decode(payload); err != nil {
			if err != api.EINVAL {
				t.Fatalf("decode error %v, want EINVAL", err)
			}
			return
		}
		enc := sec.appendTo(nil)
		if len(enc) > len(payload) {
			t.Fatalf("an accepted %d-byte payload re-encodes to %d bytes", len(payload), len(enc))
		}
		again := emptySection(kind)
		if err := again.decode(enc); err != nil {
			t.Fatalf("re-encoded section does not decode: %v", err)
		}
		if !reflect.DeepEqual(sec, again) {
			t.Fatalf("decode(encode(v)) != v:\n %+v\n %+v", sec, again)
		}
		if enc2 := again.appendTo(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n %x\n %x", enc, enc2)
		}
	})
}

// encodeImage builds a migration image from a Checkpoint value, pages
// included — the inverse of decodeImage, for tests (the libOS itself only
// ever encodes a live process, reading pages straight into the image).
func encodeImage(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	b, err := ck.beginImage(nil)
	if err != nil {
		t.Fatalf("beginImage: %v", err)
	}
	pagesAt := len(b) - sectionHeader
	for _, pg := range ck.Pages {
		var data []byte
		b, data = appendImagePage(b, pg.Addr)
		if copy(data, pg.Data) != len(data) {
			t.Fatalf("page %#x holds %d bytes", pg.Addr, len(pg.Data))
		}
	}
	if b, err = endImage(b, pagesAt); err != nil {
		t.Fatalf("endImage: %v", err)
	}
	return b
}

// sampleImage is a migration image with every section populated and two
// pages.
func sampleImage(t testing.TB, incremental bool) []byte {
	s := sampleSections()
	ck := &Checkpoint{
		ckMetaSection: *s[secMeta].(*ckMetaSection),
		ckMemSection:  *s[secMemory].(*ckMemSection),
		ckFDSection:   *s[secFDs].(*ckFDSection),
		ckSigSection:  *s[secSig].(*ckSigSection),
		Incremental:   incremental,
	}
	ck.ProgramPath = "/bin/fuzzed"
	for i := 0; i < 2; i++ {
		ck.Pages = append(ck.Pages, PageDump{
			Addr: brkBase + uint64(i)*host.PageSize,
			Data: bytes.Repeat([]byte{byte('a' + i)}, host.PageSize),
		})
	}
	return encodeImage(t, ck)
}

// FuzzResumeImage throws raw bytes at the migration image decoder and at
// ResumeFromBytes behind it: neither panics, a refused image is EINVAL, an
// accepted one round-trips like a section does, and whatever resume makes
// of it — a sandbox that runs, or an error — leaves no picoprocess behind.
func FuzzResumeImage(f *testing.F) {
	full := sampleImage(f, false)
	f.Add(full)
	f.Add(sampleImage(f, true))
	f.Add(full[:len(full)-1])
	f.Add(append(bytes.Clone(full), 0))
	f.Add([]byte(imageMagic))
	f.Fuzz(func(t *testing.T, blob []byte) {
		ck, err := decodeImage(blob)
		if err != nil {
			if err != api.EINVAL {
				t.Fatalf("decodeImage error %v, want EINVAL", err)
			}
		} else {
			enc := encodeImage(t, ck)
			again, err := decodeImage(enc)
			if err != nil {
				t.Fatalf("re-encoded image does not decode: %v", err)
			}
			if !reflect.DeepEqual(ck, again) {
				t.Fatalf("decode(encode(image)) != image")
			}
			if !bytes.Equal(enc, encodeImage(t, again)) {
				t.Fatalf("image encoding is not a fixed point")
			}
		}

		rt, man := testEnv(t)
		if err := rt.RegisterProgram("/bin/fuzzed", func(api.OS, []string) int { return 0 }); err != nil {
			t.Fatal(err)
		}
		res, rerr := rt.ResumeFromBytes(man, blob)
		if (rerr == nil) != (err == nil) && err != nil {
			t.Fatalf("decodeImage refused (%v) what ResumeFromBytes took", err)
		}
		if rerr == nil {
			select {
			case <-res.Done:
			case <-time.After(10 * time.Second):
				t.Fatal("resumed program never exited")
			}
		}
		awaitProcs(t, rt.kernel, 0)
	})
}

// awaitProcs waits for the kernel's live picoprocess count to reach want
// (an exit retires its picoprocess a moment after the exit status is out).
func awaitProcs(t *testing.T, k *host.Kernel, want int) host.Census {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := k.Census()
		if c.Procs == want {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d picoprocesses live, want %d: %+v", c.Procs, want, c)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointBytesDeterministic: equal state is equal bytes. The same
// parked process checkpoints to the same image twice (maps and the
// descriptor table have no order of their own; the codec gives them one),
// and an image resumed on another kernel checkpoints back to the image it
// came from, except for the fields a resume is documented to change:
// ParentAddr and LeaderAddr (helper addresses derive from host PIDs) and
// the RESUMED environment marker.
func TestCheckpointBytesDeterministic(t *testing.T) {
	parked := make(chan struct{}, 2)
	release := make(chan struct{})
	prog := func(p api.OS, argv []string) int {
		if p.Getenv("RESUMED") != "1" {
			for _, kv := range [][2]string{{"ZED", "26"}, {"ALPHA", "1"}, {"MID", "13"}, {"HOME", "/"}, {"EMPTY", ""}} {
				p.Setenv(kv[0], kv[1])
			}
			for _, name := range []string{"/c", "/a", "/b"} {
				fd, err := p.Open(name, api.OCreate|api.ORdWr, 0644)
				if err != nil {
					return 1
				}
				if _, err := p.Write(fd, []byte(name)); err != nil {
					return 2
				}
			}
			p.Sigaction(api.SIGPIPE, nil, api.SigIgn)
			p.Sigaction(api.SIGUSR1, nil, api.SigIgn)
			brk0, _ := p.Brk(0)
			if _, err := p.Brk(brk0 + 8*host.PageSize); err != nil {
				return 3
			}
			for i := uint64(0); i < 8; i += 2 {
				if err := p.MemWrite(brk0+i*host.PageSize+7, []byte{byte(i), 0xCC}); err != nil {
					return 4
				}
			}
			addr, err := p.Mmap(0, 3*host.PageSize, api.ProtRead|api.ProtWrite)
			if err != nil {
				return 5
			}
			if err := p.MemWrite(addr+host.PageSize, []byte("mapped")); err != nil {
				return 6
			}
		}
		parked <- struct{}{}
		<-release
		return 0
	}
	defer close(release)

	rt, man := testEnv(t)
	if err := rt.RegisterProgram("/bin/det", prog); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/det", []string{"/bin/det", "x"})
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	first, err := res.Process.CheckpointToBytes()
	if err != nil {
		t.Fatal(err)
	}
	second, err := res.Process.CheckpointToBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("the same parked process checkpointed to two different images")
	}
	d1, _ := res.Process.CheckpointDeltaBytes()
	d2, _ := res.Process.CheckpointDeltaBytes()
	if !bytes.Equal(d1, d2) || len(d1) >= len(first) {
		t.Fatalf("two deltas over no writes: %d and %d bytes (full image %d)", len(d1), len(d2), len(first))
	}

	rt2, man2 := testEnv(t)
	// The files the descriptors name travel with the machine's disk, not
	// with the image.
	for _, name := range []string{"/a", "/b", "/c"} {
		if err := rt2.kernel.FS.WriteFile(name, []byte(name), 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt2.RegisterProgram("/bin/det", prog); err != nil {
		t.Fatal(err)
	}
	res2, err := rt2.ResumeFromBytes(man2, first)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	<-parked
	back, err := res2.Process.CheckpointToBytes()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := decodeImage(first)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := decodeImage(back)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Env["RESUMED"] != "1" {
		t.Fatalf("resumed image carries no RESUMED marker: %v", resumed.Env)
	}
	delete(resumed.Env, "RESUMED")
	resumed.ParentAddr, resumed.LeaderAddr = orig.ParentAddr, orig.LeaderAddr
	if !bytes.Equal(encodeImage(t, orig), first) {
		t.Fatal("decode then encode changed the original image")
	}
	if !bytes.Equal(encodeImage(t, resumed), first) {
		t.Fatalf("checkpoint -> resume -> checkpoint moved state:\n before %+v\n after  %+v",
			orig.ckMetaSection, resumed.ckMetaSection)
	}
}

// TestRestoreChildRefusesHostileSections plays a parent that sends
// malformed sections: a length claim over the cap, a payload cut short, a
// payload with bytes after its last field, a non-empty end marker. Every
// one is EINVAL in the child; none allocates for the claim; and the failed
// restore — including one whose image mapper is already waiting on the
// bulk-IPC store — leaves the kernel's tables as it found them.
func TestRestoreChildRefusesHostileSections(t *testing.T) {
	s := sampleSections()
	meta := *s[secMeta].(*ckMetaSection)
	meta.ShardAddrs = nil
	frame := func(kind byte, payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{kind}, uint32(len(payload)))
		return append(b, payload...)
	}
	metaBytes := meta.appendTo(nil)
	mem := (&ckMemSection{Brk: brkBase + 100, BrkEnd: brkBase + host.PageSize}).appendTo(nil)
	fds := s[secFDs].appendTo(nil)
	cases := []struct {
		name   string
		store  bool // give the child a bulk-IPC store, so a memory section starts the mapper
		stream []byte
	}{
		{"oversized claim", false, binary.LittleEndian.AppendUint32([]byte{secMeta}, maxControlSection+1)},
		{"oversized zygote claim", false, binary.LittleEndian.AppendUint32([]byte{secZygote}, 1<<31)},
		{"truncated meta", false, frame(secMeta, metaBytes[:len(metaBytes)-3])},
		{"trailing bytes after meta", false, frame(secMeta, append(bytes.Clone(metaBytes), 0, 0))},
		{"trailing bytes after zygote", false, frame(secZygote, append(s[secZygote].appendTo(nil), 7))},
		{"truncated memory", true, append(frame(secMeta, metaBytes), frame(secMemory, mem[:len(mem)-1])...)},
		{"trailing bytes after fds, mapper running", true,
			append(append(frame(secMeta, metaBytes), frame(secMemory, mem)...), frame(secFDs, append(bytes.Clone(fds), 1))...)},
		{"count beyond the payload, mapper running", true,
			append(append(frame(secMeta, metaBytes), frame(secMemory, mem)...), frame(secSig, binary.AppendUvarint(nil, 1<<50))...)},
		{"end marker with a payload, mapper running", true,
			append(append(frame(secMeta, metaBytes), frame(secMemory, mem)...), frame(secDone, []byte{0})...)},
		{"unknown section", true, append(frame(secMeta, metaBytes), frame(secPages, nil)...)},
	}

	rt, man := testEnv(t)
	host.DumpTracesOnFailure(t, rt.kernel)
	stable := func(c host.Census) host.Census {
		c.RetiredRecorders, c.RecorderBytes = 0, 0 // grow with every exit, by design
		return c
	}
	code := run(t, rt, man, func(os api.OS, _ []string) int {
		p := os.(*Process)
		before := stable(awaitProcs(t, rt.kernel, 1))
		for _, tc := range cases {
			var store *host.Handle
			if tc.store {
				var err error
				if store, err = p.pal.DkCreatePhysicalMemoryChannel(); err != nil {
					t.Errorf("%s: store: %v", tc.name, err)
					return 1
				}
			}
			got := make(chan error, 1)
			_, parentEnd, err := p.pal.DkProcessCreate(func(c *pal.PAL, initial *host.Stream) {
				_, err := restoreChild(rt, c, initial, store, nil)
				got <- err
				c.DkProcessExit(127)
			}, false)
			if err != nil {
				t.Errorf("%s: create: %v", tc.name, err)
				return 1
			}
			if _, err := parentEnd.Write(tc.stream); err != nil {
				t.Errorf("%s: write: %v", tc.name, err)
			}
			select {
			case err := <-got:
				if err != api.EINVAL {
					t.Errorf("%s: restoreChild = %v, want EINVAL", tc.name, err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("%s: restoreChild still waiting", tc.name)
				return 1
			}
			parentEnd.Close()
			if store != nil {
				// What shipCheckpoint's fail path does; the child's failMap
				// has already closed a store whose mapper was running.
				_ = p.pal.DkObjectClose(store)
			}
			if after := stable(awaitProcs(t, rt.kernel, 1)); after != before {
				t.Errorf("%s: census moved:\n before %+v\n after  %+v", tc.name, before, after)
			}
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("driver exited %d", code)
	}
}

var sinkBytes []byte

func BenchmarkSectionCodec(b *testing.B) {
	b.ReportAllocs()
	secs := sampleSections()
	kinds := []byte{secMeta, secMemory, secFDs, secSig, secZygote}
	buf := make([]byte, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One fork's worth: every section framed, then decoded.
		for _, kind := range kinds {
			framed, err := appendSection(buf[:0], kind, secs[kind])
			if err != nil {
				b.Fatal(err)
			}
			if err := emptySection(kind).decode(framed[sectionHeader:]); err != nil {
				b.Fatal(err)
			}
			sinkBytes = framed
		}
	}
}

// TestSectionEncodeAllocations: framing a meta section costs its output
// buffer and the sorted key list, nothing per field.
func TestSectionEncodeAllocations(t *testing.T) {
	meta := sampleSections()[secMeta]
	if got := testing.AllocsPerRun(50, func() {
		b, err := appendSection(make([]byte, 0, 512), secMeta, meta)
		if err != nil {
			t.Fatal(err)
		}
		sinkBytes = b
	}); got > 2 {
		t.Fatalf("encoding a meta section: %v allocs, want <= 2", got)
	}
}

// TestImageOfALiveProcessMatchesItsMemory checks the in-place page path of
// checkpointImage against the address space it read from.
func TestImageOfALiveProcessMatchesItsMemory(t *testing.T) {
	rt, man := testEnv(t)
	var full, delta []byte
	code := run(t, rt, man, func(os api.OS, _ []string) int {
		p := os.(*Process)
		brk0, _ := p.Brk(0)
		if _, err := p.Brk(brk0 + 5*host.PageSize); err != nil {
			return 1
		}
		for i := uint64(0); i < 5; i++ {
			if err := p.MemWrite(brk0+i*host.PageSize+i, []byte{byte(0x10 + i)}); err != nil {
				return 2
			}
		}
		var err error
		if full, err = p.CheckpointToBytes(); err != nil {
			return 3
		}
		if err := p.MemWrite(brk0+3*host.PageSize, []byte{0xEE}); err != nil {
			return 4
		}
		if delta, err = p.CheckpointDeltaBytes(); err != nil {
			return 5
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("driver exited %d", code)
	}
	ck, err := decodeImage(full)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Incremental || len(ck.Pages) != 5 {
		t.Fatalf("full image: incremental=%v, %d pages, want 5", ck.Incremental, len(ck.Pages))
	}
	for i, pg := range ck.Pages {
		if pg.Addr != brkBase+uint64(i)*host.PageSize || pg.Data[i] != byte(0x10+i) {
			t.Fatalf("page %d: addr %#x, byte %#x", i, pg.Addr, pg.Data[i])
		}
	}
	dk, err := decodeImage(delta)
	if err != nil {
		t.Fatal(err)
	}
	if !dk.Incremental || len(dk.Pages) != 1 || dk.Pages[0].Addr != brkBase+3*host.PageSize || dk.Pages[0].Data[0] != 0xEE {
		t.Fatalf("delta image: incremental=%v pages=%d", dk.Incremental, len(dk.Pages))
	}
	if _, err := rt.ResumeFromBytes(man, delta); err != api.EINVAL {
		t.Fatalf("resuming a delta image: %v, want EINVAL", err)
	}
	// A misaligned page address or a short page is a malformed image.
	bad := bytes.Clone(full)
	at := bytes.LastIndex(bad, binary.AppendUvarint(nil, brkBase))
	bad[at]++ // the varint's low byte: address + 1
	if _, err := decodeImage(bad); err != api.EINVAL {
		t.Fatalf("misaligned page address: %v, want EINVAL", err)
	}
	if _, err := decodeImage(full[:len(full)-1]); err != api.EINVAL {
		t.Fatalf("short last page: %v, want EINVAL", err)
	}
}
