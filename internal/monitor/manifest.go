// Package monitor implements Graphene's trusted reference monitor (§3):
// manifest-driven file system and network policy (the AppArmor LSM
// extension in the paper), the sandbox abstraction, and mediation of every
// host call with effects outside a picoprocess — stream creation, bulk
// IPC, process creation, file opens, and network binds/connects.
package monitor

import (
	"fmt"
	"strings"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Manifest is a chroot-like, restricted view of the host file system plus
// iptables-style network rules — the per-application policy file (§3).
type Manifest struct {
	// Name labels the manifest (diagnostics only).
	Name string

	// Mounts translate guest path prefixes to host path prefixes, forming
	// a unioned view in the style of Plan 9 (§3). Longest prefix wins.
	Mounts []Mount

	// ReadPaths and WritePaths are guest path prefixes the application may
	// read or write. Write implies read.
	ReadPaths  []string
	WritePaths []string

	// NetListen and NetConnect are "host:port" patterns, where either
	// component may be "*".
	NetListen  []string
	NetConnect []string

	// TraceRing caps the flight-recorder ring (events per picoprocess) for
	// processes launched under this manifest: 0 keeps the host default,
	// a negative value disables recording for the sandbox entirely.
	// Children inherit the cap, so per-sandbox recorder memory is bounded
	// by processes × ring size regardless of what the guest does.
	TraceRing int
}

// Mount is one entry in the manifest's union view.
type Mount struct {
	Guest string // guest-visible prefix
	Host  string // backing host prefix
}

// ParseManifest parses the textual manifest format:
//
//	# comment
//	mount <guest-prefix> <host-prefix>
//	allow_read <guest-prefix>
//	allow_write <guest-prefix>
//	net_listen <host:port>
//	net_connect <host:port>
//	trace_buffer <events>
func ParseManifest(name, text string) (*Manifest, error) {
	m := &Manifest{Name: name}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "mount":
			if len(fields) != 3 {
				return nil, fmt.Errorf("manifest %s:%d: mount wants 2 args", name, lineNo+1)
			}
			m.Mounts = append(m.Mounts, Mount{Guest: host.CleanPath(fields[1]), Host: host.CleanPath(fields[2])})
		case "allow_read":
			if len(fields) != 2 {
				return nil, fmt.Errorf("manifest %s:%d: allow_read wants 1 arg", name, lineNo+1)
			}
			m.ReadPaths = append(m.ReadPaths, host.CleanPath(fields[1]))
		case "allow_write":
			if len(fields) != 2 {
				return nil, fmt.Errorf("manifest %s:%d: allow_write wants 1 arg", name, lineNo+1)
			}
			m.WritePaths = append(m.WritePaths, host.CleanPath(fields[1]))
		case "net_listen":
			if len(fields) != 2 {
				return nil, fmt.Errorf("manifest %s:%d: net_listen wants 1 arg", name, lineNo+1)
			}
			m.NetListen = append(m.NetListen, fields[1])
		case "net_connect":
			if len(fields) != 2 {
				return nil, fmt.Errorf("manifest %s:%d: net_connect wants 1 arg", name, lineNo+1)
			}
			m.NetConnect = append(m.NetConnect, fields[1])
		case "trace_buffer":
			if len(fields) != 2 {
				return nil, fmt.Errorf("manifest %s:%d: trace_buffer wants 1 arg", name, lineNo+1)
			}
			n, err := parseTraceBuffer(fields[1])
			if err != nil {
				return nil, fmt.Errorf("manifest %s:%d: %v", name, lineNo+1, err)
			}
			m.TraceRing = n
		default:
			return nil, fmt.Errorf("manifest %s:%d: unknown directive %q", name, lineNo+1, fields[0])
		}
	}
	return m, nil
}

// parseTraceBuffer parses the trace_buffer argument: a non-negative event
// count ("0" = host default), or "off" to disable recording.
func parseTraceBuffer(s string) (int, error) {
	if s == "off" {
		return -1, nil
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("trace_buffer wants an event count or \"off\", got %q", s)
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 {
			return 0, fmt.Errorf("trace_buffer %q too large (max %d events)", s, 1<<20)
		}
	}
	return n, nil
}

// pathAllowed reports whether path falls under one of the given prefixes.
// The path comes from the untrusted libOS, so it is normalized here.
func pathAllowed(path string, prefixes []string) bool {
	path = host.CleanPath(path)
	for _, p := range prefixes {
		if under(path, p) {
			return true
		}
	}
	return false
}

// under reports whether the clean path is prefix or lies below it.
func under(path, prefix string) bool {
	return prefix == "/" || path == prefix ||
		len(path) > len(prefix) && path[len(prefix)] == '/' && strings.HasPrefix(path, prefix)
}

// AllowsRead reports whether the manifest permits reading path.
func (m *Manifest) AllowsRead(path string) bool {
	return pathAllowed(path, m.ReadPaths) || pathAllowed(path, m.WritePaths)
}

// AllowsWrite reports whether the manifest permits writing path.
func (m *Manifest) AllowsWrite(path string) bool {
	return pathAllowed(path, m.WritePaths)
}

// Translate maps a guest path to a host path via the longest matching
// mount; unmounted paths map to themselves. Mounts are clean, so joining the
// host prefix and the clean remainder gives a clean path inside the mount.
func (m *Manifest) Translate(path string) string {
	path = host.CleanPath(path)
	best, bestLen := Mount{Guest: "/", Host: "/"}, -1
	for _, mt := range m.Mounts {
		if under(path, mt.Guest) && len(mt.Guest) > bestLen {
			best, bestLen = mt, len(mt.Guest)
		}
	}
	rest := strings.TrimPrefix(path, strings.TrimSuffix(best.Guest, "/"))
	if best.Host == "/" && rest != "" {
		return rest
	}
	if rest == "/" {
		rest = ""
	}
	return best.Host + rest
}

// addrMatches reports whether addr ("host:port") matches pattern, where
// the pattern's host or port may be "*".
func addrMatches(addr api.SockAddr, pattern string) bool {
	ah, ap, ok := splitAddr(string(addr))
	if !ok {
		return false
	}
	ph, pp, ok := splitAddr(pattern)
	if !ok {
		return false
	}
	if ph != "*" && ph != ah {
		return false
	}
	if pp != "*" && pp != ap {
		return false
	}
	return true
}

func splitAddr(s string) (hostPart, portPart string, ok bool) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// AllowsListen reports whether the manifest permits binding addr.
func (m *Manifest) AllowsListen(addr api.SockAddr) bool {
	for _, p := range m.NetListen {
		if addrMatches(addr, p) {
			return true
		}
	}
	return false
}

// AllowsConnect reports whether the manifest permits connecting to addr.
func (m *Manifest) AllowsConnect(addr api.SockAddr) bool {
	for _, p := range m.NetConnect {
		if addrMatches(addr, p) {
			return true
		}
	}
	return false
}

// Restrict returns a copy of m narrowed to the given guest path prefixes.
// A child sandbox "may specify a subset of its own file system view ...
// but may not request access to new regions" (§3): prefixes outside the
// parent view are dropped.
func (m *Manifest) Restrict(fsView []string) *Manifest {
	out := &Manifest{
		Name:       m.Name + "+restricted",
		Mounts:     append([]Mount(nil), m.Mounts...),
		NetListen:  append([]string(nil), m.NetListen...),
		NetConnect: append([]string(nil), m.NetConnect...),
		TraceRing:  m.TraceRing,
	}
	for _, p := range fsView {
		p = host.CleanPath(p)
		if m.AllowsWrite(p) {
			out.WritePaths = append(out.WritePaths, p)
			continue
		}
		if m.AllowsRead(p) {
			out.ReadPaths = append(out.ReadPaths, p)
		}
		// Paths outside the parent's view are silently dropped — the child
		// cannot escalate.
	}
	return out
}
