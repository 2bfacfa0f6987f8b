# Graphene libOS reproduction — build/test/bench entry points.

GO ?= go
PKGS := ./...
# The concurrency-heavy packages: host byte streams and kernel tables, the
# IPC coordination framework, and libLinux's fork/checkpoint pipeline over
# both. `make race` and CI's race step run exactly this list.
HOT_PKGS := ./internal/host/... ./internal/ipc/... ./internal/liblinux/...

.PHONY: build test race vet bench bench-fig5 benchmark benchmark-smoke chaos chaos-shard chaos-ring chaos-fleet cover fuzz all

all: build vet test

build:
	$(GO) build $(PKGS)

# -shuffle=on randomizes test order within each package so hidden
# inter-test state (shared registries, leftover leader processes) fails
# loudly instead of depending on source order.
test:
	$(GO) test -shuffle=on $(PKGS)

# Race-detect the concurrency-heavy packages (ring buffers, flush
# combining, sharded caches, SysV migration, the chaos failover suite, the
# helper join race, and the fork/exit leak oracle).
race:
	$(GO) test -race -count=1 $(HOT_PKGS)

# The checkpoint codec is hand-written (DESIGN.md "Fast fork"); reflection-
# driven encoding/gob on the fork path cost a fifth of proc_tree's CPU and
# must not come back through any package.
vet:
	$(GO) vet $(PKGS)
	@if grep -rn 'encoding/gob' --include='*.go' .; then echo 'encoding/gob is imported again' >&2; exit 1; fi

# Chaos + invariant suites: leader-crash failover (chaos_test.go),
# partition/heal fencing (chaos_partition_test.go), and the host partition
# primitives, under the race detector. The randomized schedules use fixed
# seeds, so -count=3 repeats the same fault plans against fresh thread
# interleavings — flakes here mean a real ordering bug, not test noise.
# TestForkedChildMakesNoLeaderTraffic (libLinux) rides along: 400 children
# of a non-leader parent must reach the leader's dispatcher zero times.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|Partition|TestForkedChildMakesNoLeaderTraffic' ./internal/ipc/ ./internal/host/ ./internal/liblinux/

# Sharded namespace plane under fault: the 4-shard chaos suites (kill
# one shard's coordinator, partition a shard subset, leader flap during
# cross-shard reclaim) plus the shard-routing determinism and rebalance
# properties, under the race detector. Same fixed-seed discipline as
# `make chaos`.
chaos-shard:
	$(GO) test -race -count=3 -run 'Shard' ./internal/ipc/

# Kernel-bypass ring datapath under fault: the host segment protocol
# (seal fences, revocation, concurrent produce/consume) and the ipc-layer
# chaos suites (owner killed mid-send, sandbox split revoking a parked
# recv, ownership migration while attached), under the race detector.
# Same fixed-seed discipline as `make chaos`.
chaos-ring:
	$(GO) test -race -count=3 -run 'Ring' ./internal/ipc/ ./internal/host/

# The prefork fleet, one target: the virtual-clock supervisor sim (the same
# fleetCore handlers the live master calls — backoff/breaker/quarantine
# timing, p2c placement properties, credit-before-pass and
# exit-before-spawned orderings, scaler determinism under fault plans, zero
# real sleeps), the live fleet on all three personalities (worker kills
# mid-request, partitions around quarantined workers, sandbox secession,
# elastic scale-up/down, a master killed at a fault point with standby
# takeover, the SLO run with a worker killed every 250 ms), and the
# listener-handover conformance contract. -count=3 because the sim is
# deterministic by construction — a run-to-run diff is a real bug — and the
# live master is threads + pipes + signals all the way down, so each rerun
# meets fresh interleavings.
chaos-fleet:
	$(GO) test -race -count=3 -run 'TestFleet|TestSim' ./internal/apps/
	$(GO) test -race -count=3 -run 'TestConformanceListener' ./internal/baseline/conformance/

# Coverage profile over every package; CI uploads coverage.out as an
# artifact. -covermode=atomic because the suites are concurrency-heavy.
cover:
	$(GO) test -shuffle=on -covermode=atomic -coverprofile=coverage.out $(PKGS)
	$(GO) tool cover -func=coverage.out | tail -n 1

# Short smoke run of the frame-codec and checkpoint-codec fuzzers (the
# checked-in corpora under internal/{ipc,liblinux}/testdata/fuzz always run
# as part of `make test`). FuzzResumeImage boots a sandbox for every image
# it accepts, so coverage differs from run to run with thread scheduling
# and the engine takes almost every input for new; -fuzzminimizetime keeps
# it from spending its default minute minimizing each.
fuzz:
	$(GO) test -run XXX -fuzz FuzzFrameCodec -fuzztime 30s ./internal/ipc/
	$(GO) test -run XXX -fuzz FuzzFrameDecode -fuzztime 30s ./internal/ipc/
	$(GO) test -run XXX -fuzz FuzzCheckpointSection -fuzztime 30s ./internal/liblinux/
	$(GO) test -run XXX -fuzz FuzzResumeImage -fuzztime 30s -fuzzminimizetime 1s ./internal/liblinux/

# Microbenchmarks with allocation accounting for the hot path, among them
# BenchmarkForkExitWait's per-stage split of a fork (create / sections /
# child-restore / image-map / helper-join / wait-ready / exit, in µs).
bench:
	$(GO) test -run XXX -bench . -benchmem $(HOT_PKGS)

# The paper's Figure 5 RPC ping-pong and related end-to-end benchmarks.
bench-fig5:
	$(GO) test -run XXX -bench 'BenchmarkFig5' -benchmem .

# The repo's one declared benchmark (BENCHMARK.json): five workloads on the
# Graphene personality, end-to-end and per-layer metrics. See
# benchmark/README.md; `-compare a.json b.json` judges two result files.
benchmark:
	$(GO) run ./benchmark

# Three seconds each of the fork-heavy and the single-process workload: the
# benchmark verifies every unit's output, so its exit status is a
# correctness gate for the fork pipeline end to end. No timing assertion.
benchmark-smoke:
	$(GO) run ./benchmark --workload proc_tree --seconds 3 --trace 0
	$(GO) run ./benchmark --workload syscall_mix --seconds 3 --trace 0
