package monitor

import (
	"strings"
	"testing"

	"graphene/internal/host"
)

// translateModel is Translate as it once was: pick the longest mount whose
// guest prefix covers the cleaned path, then clean the joined host path.
// It returns the chosen mount too (nil when none covers the path).
func translateModel(m *Manifest, path string) (string, *Mount) {
	path = host.CleanPath(path)
	var best *Mount
	for i := range m.Mounts {
		mt := &m.Mounts[i]
		if (mt.Guest == "/" || path == mt.Guest || strings.HasPrefix(path, mt.Guest+"/")) &&
			(best == nil || len(mt.Guest) > len(best.Guest)) {
			best = mt
		}
	}
	if best == nil {
		return path, nil
	}
	rest := strings.TrimPrefix(path, best.Guest)
	return host.CleanPath(best.Host + "/" + rest), best
}

// FuzzManifestTranslate checks Translate against the clean-the-join model
// over a manifest with one fuzzed mount beside fixed ones, and that the
// result never leaves the chosen mount's host prefix.
func FuzzManifestTranslate(f *testing.F) {
	for _, seed := range [][3]string{
		{"/tmp", "/srv/tmp", "/tmp/../etc/passwd"},
		{"//", "/x", "//"},
		{"/data", "/srv/data", "/data/../.."},
		{"", "", ""},
		{"/data/", "/", "/data"},
		{"/a/b", "/c", "/a/b/../b/./d"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, guest, hostPrefix, path string) {
		m := &Manifest{Mounts: []Mount{
			{Guest: "/", Host: "/"},
			{Guest: "/data", Host: "/srv/data"},
			{Guest: host.CleanPath(guest), Host: host.CleanPath(hostPrefix)},
		}}
		got := m.Translate(path)
		want, best := translateModel(m, path)
		if got != want {
			t.Fatalf("Translate(%q) under %+v = %q, model says %q", path, m.Mounts, got, want)
		}
		if got != host.CleanPath(got) {
			t.Fatalf("Translate(%q) = %q is not clean", path, got)
		}
		if h := best.Host; h != "/" && got != h && !strings.HasPrefix(got, h+"/") {
			t.Fatalf("Translate(%q) = %q left mount %+v", path, got, *best)
		}
	})
}

// TestPathChecksDoNotAllocate: the monitor normalizes every guest path
// itself, and for a clean one that is a scan. Checking and translating an
// open allocate nothing, except that a path below a prefix mount translates
// to a new string: the host path itself, one allocation.
func TestPathChecksDoNotAllocate(t *testing.T) {
	const prefixMount = "mount / /\nmount /data /srv/data\nallow_read /\nallow_write /\n"
	for _, c := range []struct {
		manifest, path string
		allocs         float64
	}{
		{"mount / /\nallow_read /\nallow_write /\n", "/mix/f1", 0},
		{prefixMount, "/mix/f1", 0},
		{prefixMount, "/data", 0},
		{prefixMount, "/data/x/y", 1},
	} {
		k := host.NewKernel()
		mon := New(k)
		m, err := ParseManifest("alloc", c.manifest)
		if err != nil {
			t.Fatal(err)
		}
		proc, _, err := mon.Launch(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if err := mon.CheckOpen(proc, c.path, true); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%q: CheckOpen %q: %v allocs, want 0", c.manifest, c.path, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := mon.TranslatePath(proc, c.path); err != nil {
				t.Fatal(err)
			}
		}); got != c.allocs {
			t.Errorf("%q: TranslatePath %q: %v allocs, want %v", c.manifest, c.path, got, c.allocs)
		}
	}
}
