package bench

import (
	"time"

	"graphene/internal/api"
	"graphene/internal/baseline/kvm"
	"graphene/internal/metrics"
)

// Table4Result holds one system's row set for Table 4: startup,
// checkpoint, and resume times plus checkpoint size.
type Table4Result struct {
	System         string
	StartupUS      *metrics.Sample
	CheckpointUS   *metrics.Sample // nil where not applicable (Linux)
	ResumeUS       *metrics.Sample
	CheckpointSize uint64
}

// Table4 measures process/VM/picoprocess startup and checkpoint/resume,
// reproducing Table 4. The checkpointed application allocates ~4 MB, as in
// the paper ("checkpointing and restoring a 4 MB application").
func Table4(iters int) ([]Table4Result, error) {
	if iters <= 0 {
		iters = 10
	}
	var out []Table4Result

	// The no-op program used for startup timing.
	noop := "/bin/true"
	// The 4 MB application used for checkpoint/resume. Most of a real
	// application's 4 MB is file-backed text reloaded on resume; only the
	// dirty anonymous pages travel in the checkpoint (the paper's 376 KB
	// for a 4 MB application). Touch pages sparsely to the same effect.
	fourMB := func(p api.OS, argv []string) int {
		brk0, _ := p.Brk(0)
		p.Brk(brk0 + 4<<20)
		for off := uint64(0); off < 4<<20; off += 48 << 10 {
			_ = p.MemWrite(brk0+off, []byte{byte(off >> 12)})
		}
		if p.Getenv("RESUMED") == "1" {
			return 0
		}
		for { // park until checkpointed
			time.Sleep(time.Millisecond)
			p.SignalsDrain()
		}
	}

	// --- start-up: native Linux and Graphene, interleaved ---
	// One sample of each in turn, so a GC cycle or a busy neighbour
	// landing on one system's few-microsecond loop cannot decide the
	// ordering by itself (Table6 samples its cells the same way).
	native, err := NewNative()
	if err != nil {
		return nil, err
	}
	env, err := NewGraphene()
	if err != nil {
		return nil, err
	}
	linuxStartup, grapheneStartup := &metrics.Sample{}, &metrics.Sample{}
	for i := 0; i < iters*3; i++ {
		for _, c := range []struct {
			run func(string, ...string) (int, error)
			s   *metrics.Sample
		}{{native.Run, linuxStartup}, {env.Run, grapheneStartup}} {
			start := time.Now()
			if _, err := c.run(noop); err != nil {
				return nil, err
			}
			c.s.AddDuration(time.Since(start))
		}
	}
	out = append(out, Table4Result{System: "Linux", StartupUS: linuxStartup})

	// --- KVM ---
	{
		kvmIters := iters / 3
		if kvmIters < 2 {
			kvmIters = 2
		}
		startup := metrics.Measure(kvmIters, func() {
			env, err := NewKVM()
			if err != nil {
				panic(err)
			}
			if _, err := env.Run(noop); err != nil {
				panic(err)
			}
		})
		// Checkpoint/resume one VM.
		env, err := NewKVM()
		if err != nil {
			return nil, err
		}
		var blob []byte
		ckpt := metrics.Measure(kvmIters, func() {
			blob = env.VM.Checkpoint()
		})
		resume := metrics.Measure(kvmIters, func() {
			_ = kvm.Resume(blob)
		})
		out = append(out, Table4Result{
			System: "KVM", StartupUS: startup,
			CheckpointUS: ckpt, ResumeUS: resume,
			CheckpointSize: uint64(len(blob)),
		})
	}

	// --- Graphene ---
	{
		// Checkpoint and resume the 4 MB application.
		if err := env.Runtime.RegisterProgram("/bin/fourmb", fourMB); err != nil {
			return nil, err
		}
		res, err := env.Launch("/bin/fourmb", nil)
		if err != nil {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond) // let it populate its heap
		var blob []byte
		ckpt := metrics.Measure(iters, func() {
			b, err := res.Process.CheckpointToBytes()
			if err != nil {
				panic(err)
			}
			blob = b
		})
		// The parked application never exits on its own.
		_ = res.Process.Kill(res.Process.Getpid(), api.SIGKILL)
		<-res.Done
		resume := metrics.Measure(iters, func() {
			env2, err := NewGraphene()
			if err != nil {
				panic(err)
			}
			if err := env2.Runtime.RegisterProgram("/bin/fourmb", fourMB); err != nil {
				panic(err)
			}
			start := time.Now()
			r2, err := env2.Runtime.ResumeFromBytes(env2.Manifest, blob)
			if err != nil {
				panic(err)
			}
			<-r2.Done
			_ = start
		})
		out = append(out, Table4Result{
			System: "Graphene", StartupUS: grapheneStartup,
			CheckpointUS: ckpt, ResumeUS: resume,
			CheckpointSize: uint64(len(blob)),
		})
	}
	return out, nil
}
