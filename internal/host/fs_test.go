package host

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"graphene/internal/api"
)

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"/a/b/c":        "/a/b/c",
		"a/b":           "/a/b",
		"/a/../b":       "/b",
		"/../../etc":    "/etc",
		"/a/./b//c":     "/a/b/c",
		"/":             "/",
		"":              "/",
		"/a/b/../../..": "/",
	}
	for in, want := range cases {
		if got := CleanPath(in); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// cleanPathModel is the split/join normalizer CleanPath once was: drop
// empty and "." components, let ".." pop one (clamped at the root), join.
func cleanPathModel(p string) string {
	var stack []string
	for _, part := range strings.Split(p, "/") {
		switch part {
		case "", ".":
		case "..":
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			stack = append(stack, part)
		}
	}
	return "/" + strings.Join(stack, "/")
}

// FuzzCleanPath checks CleanPath against the split/join model, and that its
// result is absolute, has no empty, "." or ".." component, and is a fixed
// point.
func FuzzCleanPath(f *testing.F) {
	for _, seed := range []string{"/tmp/../etc/passwd", "//", "/data/../..", "", "a/./b/", "/../x/..", "..."} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p string) {
		got := CleanPath(p)
		if want := cleanPathModel(p); got != want {
			t.Fatalf("CleanPath(%q) = %q, model says %q", p, got, want)
		}
		if again := CleanPath(got); again != got {
			t.Fatalf("CleanPath not idempotent: %q -> %q -> %q", p, got, again)
		}
		if got == "/" {
			return
		}
		if !strings.HasPrefix(got, "/") {
			t.Fatalf("CleanPath(%q) = %q is not absolute", p, got)
		}
		for _, c := range strings.Split(got[1:], "/") {
			if c == "" || c == "." || c == ".." {
				t.Fatalf("CleanPath(%q) = %q keeps component %q", p, got, c)
			}
		}
	})
}

// TestPathHotPathsDoNotAllocate: a clean path costs a scan. Normalizing it,
// walking it and doing I/O through an open handle allocate nothing.
func TestPathHotPathsDoNotAllocate(t *testing.T) {
	fs := NewFileSystem()
	const p = "/a/b/c"
	if err := fs.MkdirAll("/a/b", 0755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFileHandle(p, api.OCreate|api.ORdWr, 0644)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"CleanPath": func() { _ = CleanPath(p) },
		"Stat":      func() { _, _ = fs.Stat(p) },
		"Exists":    func() { _ = fs.Exists(p) },
		"ReadAt":    func() { _, _ = f.ReadAt(buf, 0) },
		"WriteAt":   func() { _, _ = f.WriteAt(buf[:1024], 512) },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocs, want 0", name, got)
		}
	}
}

// TestOpenFileOutlivesItsName: a handle reaches the file it opened, not
// whatever its name points at later.
func TestOpenFileOutlivesItsName(t *testing.T) {
	fs := NewFileSystem()
	f, _ := fs.OpenFileHandle("/f", api.OCreate|api.ORdWr, 0644)
	f.WriteAt([]byte("old"), 0)
	fs.WriteFile("/g", []byte("new"), 0644)
	if err := fs.Rename("/g", "/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 0); err != nil || string(buf[:n]) != "old" {
		t.Fatalf("read after rename-over: %q, %v", buf[:n], err)
	}
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("er"), 3); err != nil {
		t.Fatalf("write after unlink: %v", err)
	}
	if n, err := f.ReadAt(buf, 0); err != nil || string(buf[:n]) != "older" {
		t.Fatalf("read after unlink: %q, %v", buf[:n], err)
	}
	if f.Size() != 5 {
		t.Fatalf("size after unlink = %d", f.Size())
	}
}

// TestOpenFileIOAcrossRenames: handles writing and reading their files
// while another goroutine renames over, unlinks and recreates their names.
// Each handle sees only its own bytes (run under -race).
func TestOpenFileIOAcrossRenames(t *testing.T) {
	fs := NewFileSystem()
	const writers, rounds = 4, 200
	files := make([]*OpenFile, writers)
	for w := range files {
		f, err := fs.OpenFileHandle("/w"+string(rune('0'+w)), api.OCreate|api.ORdWr, 0644)
		if err != nil {
			t.Fatal(err)
		}
		files[w] = f
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			fs.Rename("/w0", "/w1")
			fs.Unlink("/w2")
			fs.WriteFile("/x", []byte("replacement"), 0644)
			fs.Rename("/x", "/w0")
		}
	}()
	errs := make(chan string, writers)
	for w, f := range files {
		go func(b []byte, f *OpenFile) {
			for i := 0; i < rounds; i++ {
				f.WriteAt(b, int64(i))
			}
			got := make([]byte, rounds)
			if n, _ := f.ReadAt(got, 0); n != rounds || strings.Count(string(got), string(b)) != rounds {
				errs <- "handle " + string(b) + " read " + string(got[:n])
				return
			}
			errs <- ""
		}([]byte{byte('a' + w)}, f)
	}
	for range files {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
	<-done
}

// TestFileGrowthIsAmortised: appending 1 MiB in 4 KiB writes copies the
// file O(1) times over, not once per write.
func TestFileGrowthIsAmortised(t *testing.T) {
	fs := NewFileSystem()
	f, _ := fs.OpenFileHandle("/big", api.OCreate|api.OWrOnly, 0644)
	chunk := make([]byte, 4<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 256; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if f.Size() != 1<<20 {
		t.Fatalf("size %d, want 1 MiB", f.Size())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("writing 1 MiB in 4 KiB writes allocated %d bytes, want < 4 MiB", got)
	}
}

func TestFSWriteRead(t *testing.T) {
	fs := NewFileSystem()
	if err := fs.MkdirAll("/etc/app", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/etc/app/conf", []byte("k=v"), 0644); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/etc/app/conf")
	if err != nil || string(data) != "k=v" {
		t.Fatalf("ReadFile: %q, %v", data, err)
	}
}

func TestFSErrnos(t *testing.T) {
	fs := NewFileSystem()
	if _, err := fs.ReadFile("/missing"); err != api.ENOENT {
		t.Errorf("ReadFile missing: %v", err)
	}
	if err := fs.WriteFile("/no/such/dir/f", nil, 0644); err != api.ENOENT {
		t.Errorf("WriteFile w/o parent: %v", err)
	}
	fs.MkdirAll("/d", 0755)
	if _, err := fs.ReadFile("/d"); err != api.EISDIR {
		t.Errorf("ReadFile dir: %v", err)
	}
	if err := fs.Mkdir("/d", 0755); err != api.EEXIST {
		t.Errorf("Mkdir existing: %v", err)
	}
	fs.WriteFile("/d/f", []byte("x"), 0644)
	if err := fs.Unlink("/d"); err != api.ENOTEMPTY {
		t.Errorf("Unlink nonempty dir: %v", err)
	}
	if _, err := fs.ReadDir("/d/f"); err != api.ENOTDIR {
		t.Errorf("ReadDir on file: %v", err)
	}
}

func TestFSRename(t *testing.T) {
	fs := NewFileSystem()
	fs.MkdirAll("/a", 0755)
	fs.MkdirAll("/b", 0755)
	fs.WriteFile("/a/f", []byte("content"), 0644)
	if err := fs.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a/f") {
		t.Fatal("old path survives rename")
	}
	data, err := fs.ReadFile("/b/g")
	if err != nil || string(data) != "content" {
		t.Fatalf("renamed file: %q, %v", data, err)
	}
}

func TestFSReadDirSorted(t *testing.T) {
	fs := NewFileSystem()
	fs.MkdirAll("/dir", 0755)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		fs.WriteFile("/dir/"+n, nil, 0644)
	}
	ents, err := fs.ReadDir("/dir")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i, e := range ents {
		if e.Name != want[i] {
			t.Fatalf("ents[%d] = %q, want %q", i, e.Name, want[i])
		}
	}
}

func TestOpenFileFlags(t *testing.T) {
	fs := NewFileSystem()
	if _, err := fs.OpenFileHandle("/f", api.ORdOnly, 0); err != api.ENOENT {
		t.Fatalf("open missing: %v", err)
	}
	f, err := fs.OpenFileHandle("/f", api.OCreate|api.OWrOnly, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.OpenFileHandle("/f", api.OCreate|api.OExcl, 0644); err != api.EEXIST {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
	if _, err := fs.OpenFileHandle("/f", api.OTrunc|api.OWrOnly, 0); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat("/f")
	if st.Size != 0 {
		t.Fatalf("O_TRUNC left size %d", st.Size)
	}
}

func TestOpenFileAppend(t *testing.T) {
	fs := NewFileSystem()
	fs.WriteFile("/log", []byte("one\n"), 0644)
	f, err := fs.OpenFileHandle("/log", api.OWrOnly|api.OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("two\n")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/log")
	if string(data) != "one\ntwo\n" {
		t.Fatalf("append result: %q", data)
	}
}

func TestOpenFileCursorAndSetLength(t *testing.T) {
	fs := NewFileSystem()
	fs.WriteFile("/f", []byte("abcdefgh"), 0644)
	f, _ := fs.OpenFileHandle("/f", api.ORdWr, 0)
	buf := make([]byte, 3)
	n, _ := f.Read(buf)
	if string(buf[:n]) != "abc" {
		t.Fatalf("first read %q", buf[:n])
	}
	n, _ = f.Read(buf)
	if string(buf[:n]) != "def" {
		t.Fatalf("cursor did not advance: %q", buf[:n])
	}
	if err := f.SetLength(4); err != nil {
		t.Fatal(err)
	}
	if sz := f.Size(); sz != 4 {
		t.Fatalf("size after truncate = %d", sz)
	}
}

// Property: writing then reading any path under a created directory round
// trips the content.
func TestPropertyFSRoundTrip(t *testing.T) {
	fs := NewFileSystem()
	fs.MkdirAll("/p", 0755)
	f := func(name string, content []byte) bool {
		// Sanitize into a single path segment.
		clean := make([]rune, 0, len(name))
		for _, r := range name {
			if r != '/' && r != 0 {
				clean = append(clean, r)
			}
		}
		if len(clean) == 0 {
			clean = []rune{'x'}
		}
		p := "/p/" + string(clean)
		if err := fs.WriteFile(p, content, 0644); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		if err != nil {
			return false
		}
		if len(got) != len(content) {
			return false
		}
		for i := range got {
			if got[i] != content[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
