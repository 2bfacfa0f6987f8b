// Quickstart: boot a Graphene host, launch a shell script in a sandboxed
// picoprocess, and watch multiple libOS instances cooperate — the
// fork/exec/pipe/wait machinery of §4 behind one familiar command line.
package main

import (
	"fmt"
	"os"

	"graphene/internal/apps"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

func main() {
	// 1. The simulated host kernel and the trusted reference monitor.
	kernel := host.NewKernel()
	kernel.ConsoleOf().SetMirror(os.Stdout)
	mon := monitor.New(kernel)

	// 2. A Graphene runtime with the application suite installed.
	rt := liblinux.NewRuntime(kernel, mon)
	if err := apps.RegisterAll(rt.RegisterProgram); err != nil {
		panic(err)
	}

	// 3. A manifest: the application sees /bin and may scribble in /tmp.
	manifest, err := monitor.ParseManifest("quickstart", `
mount / /
allow_read /bin
allow_write /tmp
`)
	if err != nil {
		panic(err)
	}

	// 4. Launch a multi-process shell script. Each pipeline stage is a
	// separate picoprocess with its own libOS instance; they coordinate
	// PIDs over RPC and pass data through pipes, and each parent learns of
	// a child's exit from the child's host process handle.
	script := `
mkdir /tmp
echo "Graphene says hello" > /tmp/greeting
cat /tmp/greeting
seq 10 | grep 1 | wc
echo "3 background jobs:"
echo one &
echo two &
echo three &
wait
`
	res, err := rt.Launch(manifest, "/bin/sh", []string{"/bin/sh", "-c", script})
	if err != nil {
		panic(err)
	}
	<-res.Done
	fmt.Printf("\nshell exited %d; host ran %d syscalls through the seccomp gate\n",
		res.ExitCode(), kernel.SyscallCount())
}
