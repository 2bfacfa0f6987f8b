package conformance

import (
	"testing"

	"graphene/internal/api"
)

// TestConformanceOpenFileOutlivesItsName: a descriptor names the file it
// opened, not a path. It keeps reading and writing that file after the file
// is unlinked, renamed, or has another file renamed over its name.
func TestConformanceOpenFileOutlivesItsName(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		buf := make([]byte, 16)

		// Unlinked while open: the bytes stay reachable through the fd.
		fd, err := p.Open("/gone", api.OCreate|api.ORdWr, 0644)
		if err != nil {
			return 1
		}
		if _, err := p.Write(fd, []byte("still here")); err != nil {
			return 2
		}
		if err := p.Unlink("/gone"); err != nil {
			return 3
		}
		if _, err := p.Lseek(fd, 0, api.SeekSet); err != nil {
			return 4
		}
		if n, err := p.Read(fd, buf); err != nil || string(buf[:n]) != "still here" {
			return 5
		}
		p.Close(fd)

		// Renamed while open: writes through the fd land in the file under
		// its new name.
		fd, err = p.Open("/a", api.OCreate|api.ORdWr, 0644)
		if err != nil {
			return 6
		}
		if err := p.Rename("/a", "/b"); err != nil {
			return 7
		}
		if _, err := p.Write(fd, []byte("moved")); err != nil {
			return 8
		}
		p.Close(fd)
		fd, err = p.Open("/b", api.ORdOnly, 0)
		if err != nil {
			return 9
		}
		if n, err := p.Read(fd, buf); err != nil || string(buf[:n]) != "moved" {
			return 10
		}
		p.Close(fd)

		// Renamed over (the rename-swap a server does to publish a new
		// file): a reader that opened the old file keeps reading it.
		if err := writeFile(p, "/f", "old content"); err != nil {
			return 11
		}
		rfd, err := p.Open("/f", api.ORdOnly, 0)
		if err != nil {
			return 12
		}
		if err := writeFile(p, "/f.new", "new content"); err != nil {
			return 13
		}
		if err := p.Rename("/f.new", "/f"); err != nil {
			return 14
		}
		if n, err := p.Read(rfd, buf); err != nil || string(buf[:n]) != "old content" {
			return 15
		}
		p.Close(rfd)
		return 0
	})
}

func writeFile(p api.OS, path, content string) error {
	fd, err := p.Open(path, api.OCreate|api.OTrunc|api.OWrOnly, 0644)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	_, err = p.Write(fd, []byte(content))
	return err
}
