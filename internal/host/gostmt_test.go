package host

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// rawGoSites lists every go statement in the non-test code of the packages
// below, by file and enclosing function, with how many each holds. Each is
// work a picoprocess runs that its kernel does not count as a thread, so
// the list may only shrink: a new go statement fails
// TestRawGoStatementsOnlyShrink, and so does one that is gone but still
// listed. NewThread is the one that should stay.
var rawGoSites = map[string]int{
	"host/process.go (*Picoprocess).NewThread":      1,
	"ipc/conn.go (*Conn).start":                     1,
	"ipc/dispatch.go (*Helper).dispatch":            1,
	"ipc/dispatch.go (*Helper).handleParkable":      1,
	"ipc/helper.go (*Helper).start":                 2,
	"ipc/helper.go (*Helper).broadcastLoop":         1,
	"ipc/helper.go (*Helper).dropConn":              1,
	"ipc/helper.go (*Helper).bgGo":                  1,
	"liblinux/checkpoint.go restoreChild":           1,
	"liblinux/fs.go (*Process).Pipe":                1,
	"liblinux/process.go (*Process).forkInternal":   1,
	"liblinux/process.go (*Process).shipCheckpoint": 1,
	"liblinux/process.go (*Process).deliver":        1,
}

// TestRawGoStatementsOnlyShrink holds the packages a picoprocess's threads
// run in to the sites in rawGoSites.
func TestRawGoStatementsOnlyShrink(t *testing.T) {
	found := map[string]int{}
	for _, pkg := range []string{"host", "ipc", "liblinux", "posix"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						found[pkg+"/"+filepath.Base(path)+" "+funcName(fn)]++
					}
					return true
				})
			}
		}
	}
	for site, n := range found {
		if want := rawGoSites[site]; n > want {
			t.Errorf("%s: %d go statements, %d allowed; start the work as a picoprocess thread", site, n, want)
		}
	}
	for site, want := range rawGoSites {
		if n := found[site]; n < want {
			t.Errorf("%s: %d go statements, %d listed; shrink rawGoSites to match", site, n, want)
		}
	}
}

// funcName is fn's name as "(*T).m" for a method, "f" for a function.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}
