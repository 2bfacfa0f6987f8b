# Graphene libOS reproduction — build/test/bench entry points.

GO ?= go
PKGS := ./...
# The concurrency-heavy packages: host byte streams and kernel tables, the
# IPC coordination framework, libLinux's fork/checkpoint pipeline over both,
# the POSIX process core both personalities share (descriptor, signal and
# wait tables), and the native personality that uses it without a libOS.
# `make race` and CI's race step run exactly this list.
HOT_PKGS := ./internal/host/... ./internal/ipc/... ./internal/liblinux/... ./internal/posix/... ./internal/baseline/native/...

.PHONY: build test race vet shape bench bench-smoke bench-fig5 benchmark benchmark-smoke chaos chaos-ring chaos-fleet flake cover fuzz loc all

all: build vet test

build:
	$(GO) build $(PKGS)

# -shuffle=on randomizes test order within each package so hidden
# inter-test state (shared registries, leftover leader processes) fails
# loudly instead of depending on source order.
test:
	$(GO) test -shuffle=on $(PKGS)

# Race-detect the concurrency-heavy packages (ring buffers, flush
# combining, the broadcast log, SysV migration, the chaos failover suite, the
# helper join race, and the fork/exit leak oracle).
race:
	$(GO) test -race -count=1 $(HOT_PKGS)

# The paper's shape as a property, ten times over: Table 4 start-up
# linux < graphene < kvm, Table 6 linux < graphene on every fork cell and
# graphene < linux on getpid, Figure 4 kvm >= 3 x graphene. Native Linux is
# the host kernel without the libOS, so each ordering holds by
# construction; one failure in ten runs is a real regression, not noise.
shape:
	$(GO) test -count=10 -run 'TestTable4Smoke|TestTable6Smoke|TestFig4Smoke' ./internal/bench/

# The checkpoint codec is hand-written (DESIGN.md "Fast fork"); reflection-
# driven encoding/gob on the fork path cost a fifth of proc_tree's CPU and
# must not come back through any package.
vet:
	$(GO) vet $(PKGS)
	@if grep -rn 'encoding/gob' --include='*.go' .; then echo 'encoding/gob is imported again' >&2; exit 1; fi

# Chaos + invariant suites: crash-stop failover — a leader or owner killed
# at a fault point, a crashed member reaped (chaos_test.go and the
# fault-schedule determinism test) — every test in
# election_test.go (concurrent claims converge on the first, the winner's
# tables rebuilt from every report, the claim read-back hold, the report
# fold), and the host broadcast log the election is ordered by (one order
# for every subscriber under concurrent senders and joining and leaving
# subscribers, nothing lost, nothing held once read), under the race
# detector. The schedules use fixed seeds, so -count=3
# repeats the same fault plans against fresh thread interleavings —
# flakes here mean a real ordering bug, not test noise.
# TestForkedChildMakesNoLeaderTraffic (libLinux) rides along: 400 children
# of a non-leader parent must reach the leader's dispatcher zero times.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|Elect|Claimant|Report|Recover|Broadcast|TestForkedChildMakesNoLeaderTraffic' ./internal/ipc/ ./internal/host/ ./internal/liblinux/

# Kernel-bypass send ring under fault: the host ring protocol (seal
# fence, revocation, concurrent produce/consume), the route rule (only
# sends ask for a ring) and the ipc-layer chaos suites (owner killed
# mid-send, sandbox split revoking an attached sender, ownership
# migration while attached), under the race detector.
# Same fixed-seed discipline as `make chaos`.
chaos-ring:
	$(GO) test -race -count=3 -run 'Ring' ./internal/ipc/ ./internal/host/

# The prefork fleet, one target: the virtual-clock supervisor sim (the same
# fleetCore handlers the live master calls — backoff/breaker/quarantine
# timing, p2c placement properties, credit-before-pass and
# exit-before-spawned orderings, scaler determinism under fault plans, zero
# real sleeps), the live fleet on all three personalities (worker kills
# mid-request, a wedged worker quarantined and killed, sandbox secession,
# elastic scale-up/down, a master killed at a fault point with standby
# takeover, the SLO run with a worker killed every 250 ms), and the
# listener-handover conformance contract. -count=3 because the sim is
# deterministic by construction — a run-to-run diff is a real bug — and the
# live master is threads + pipes + signals all the way down, so each rerun
# meets fresh interleavings.
chaos-fleet:
	$(GO) test -race -count=3 -run 'TestFleet|TestSim' ./internal/apps/
	$(GO) test -race -count=3 -run 'TestConformanceListener' ./internal/baseline/conformance/

# Flake census for one package: `make flake PKG=./internal/liblinux/` runs
# its tests twenty times in one race-detector binary, each iteration in a
# fresh random order, and prints pass or fail (with the failing tests) per
# iteration, then the shuffle seed that replays the run. A green package
# reads 20/20. The full verbose log is left in flake.log.
flake:
	@test -n "$(PKG)" || { echo 'usage: make flake PKG=./internal/<package>/' >&2; exit 2; }
	@$(GO) test -race -shuffle=on -count=20 -v $(PKG) >flake.log 2>&1; status=$$?; \
	awk '/^-test.shuffle / { seed = $$2 } \
		/^--- (PASS|FAIL|SKIP): / { k = ++seen[$$3]; if (k > ran) ran = k; if ($$2 == "FAIL:") bad[k] = bad[k] " " $$3 } \
		END { ok = 0; for (i = 1; i <= 20; i++) { \
			if (i > ran) print "iteration " i ": did not run"; \
			else if (i in bad) print "iteration " i ": FAIL" bad[i]; \
			else { print "iteration " i ": ok"; ok++ } } \
			print ok "/20 passed, -test.shuffle " seed }' flake.log; \
	exit $$status

# Non-test Go lines per package directory (_test.go files and testdata
# excluded; benchmark/ is a package of its own), then the total: the
# before / after figure a simplification reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# Coverage profile over every package; CI uploads coverage.out as an
# artifact. -covermode=atomic because the suites are concurrency-heavy.
cover:
	$(GO) test -shuffle=on -covermode=atomic -coverprofile=coverage.out $(PKGS)
	$(GO) tool cover -func=coverage.out | tail -n 1

# Short smoke run of the frame-codec and checkpoint-codec fuzzers and of the
# two path normalizers, each against the algorithm it replaced (host
# CleanPath, the monitor's mount translation). The checked-in corpora under
# internal/{ipc,liblinux}/testdata/fuzz and the seeds always run as part of
# `make test`. FuzzResumeImage boots a sandbox for every image
# it accepts, so coverage differs from run to run with thread scheduling
# and the engine takes almost every input for new; -fuzzminimizetime keeps
# it from spending its default minute minimizing each.
fuzz:
	$(GO) test -run XXX -fuzz FuzzFrameCodec -fuzztime 30s ./internal/ipc/
	$(GO) test -run XXX -fuzz FuzzFrameDecode -fuzztime 30s ./internal/ipc/
	$(GO) test -run XXX -fuzz FuzzCheckpointSection -fuzztime 30s ./internal/liblinux/
	$(GO) test -run XXX -fuzz FuzzResumeImage -fuzztime 30s -fuzzminimizetime 1s ./internal/liblinux/
	$(GO) test -run XXX -fuzz FuzzCleanPath -fuzztime 30s ./internal/host/
	$(GO) test -run XXX -fuzz FuzzManifestTranslate -fuzztime 30s ./internal/monitor/

# Microbenchmarks with allocation accounting for the hot path, among them
# BenchmarkForkExitWait's per-stage split of a fork (create / sections /
# child-restore / image-map / helper-join / wait-ready / exit, in µs).
bench:
	$(GO) test -run XXX -bench . -benchmem $(HOT_PKGS)

# One iteration of each fork-cost benchmark: the per-stage split of a
# fork+exit+wait (16 KiB and 8 MiB), ForkCOW, a bulk-IPC commit + map of an
# 8 MiB heap, and building the libOS image against mapping the kernel's
# copy of it; then one of each System V operation-path route: owner-local
# send + receive and semop, a ring send, an RPC semop and an acknowledged
# RPC send; and a member's namespace RPCs: a key lookup at the leader and
# a create + rmid, and the same create + rmid at the leader itself; one
# failover after a leader kill (to a lookup and a create); then a
# served connection at the host ABI (connect, accept, request, reply, both
# closes), a broadcast subscription (subscribe, one message, unsubscribe)
# and one GET through a 4-worker /bin/httpd-fleet, with their
# allocations. No timing gate; it keeps the benchmarks and the per-stage
# observer compiling and running.
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkForkExitWait|BenchmarkForkCOW|BenchmarkCommitMap|BenchmarkTouchRangeImage|BenchmarkMapImage' -benchtime 1x ./internal/host/ ./internal/liblinux/
	$(GO) test -run XXX -bench 'BenchmarkHelperMsgsndLocal|BenchmarkHelperSemopLocal|BenchmarkRingMsgsndRemote|BenchmarkRPCSemopRemote|BenchmarkRPCMsgsndRemote|BenchmarkRPCKeyLookupRemote|BenchmarkRPCKeyChurnRemote|BenchmarkLeaderKeyChurn|BenchmarkFailoverAfterLeaderKill' -benchmem -benchtime 1x ./internal/ipc/
	$(GO) test -run XXX -bench 'BenchmarkStreamConnectCycle|BenchmarkBroadcastSubscribe|BenchmarkFleetRequest' -benchmem -benchtime 1x ./internal/host/ ./internal/apps/

# The paper's Figure 5 RPC ping-pong and related end-to-end benchmarks.
bench-fig5:
	$(GO) test -run XXX -bench 'BenchmarkFig5' -benchmem .

# The repo's one declared benchmark (BENCHMARK.json): five workloads on the
# Graphene personality, end-to-end and per-layer metrics. See
# benchmark/README.md; `-compare a.json b.json` judges two result files.
benchmark:
	$(GO) run ./benchmark

# Three seconds of each of the five BENCHMARK.json workloads: the benchmark
# verifies every unit's output, so its exit status is a correctness gate
# end to end for the fork pipeline, the single-process path, the SysV
# data path, key resolution (sibling lookups, ENOENT after rmid, no stale
# lookups) and the fleet's accept -> dispatch -> pass. No timing assertion.
benchmark-smoke:
	$(GO) run ./benchmark --workload proc_tree --seconds 3 --trace 0
	$(GO) run ./benchmark --workload syscall_mix --seconds 3 --trace 0
	$(GO) run ./benchmark --workload sysv_rpc --seconds 3 --trace 0
	$(GO) run ./benchmark --workload ns_churn --seconds 3 --trace 0
	$(GO) run ./benchmark --workload httpd_fleet --seconds 3 --trace 0
