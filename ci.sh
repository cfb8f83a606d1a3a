#!/bin/sh
# Tier-1 gate: every change must pass this before merging.
#
#   ./ci.sh          # gofmt + vet + race-enabled tests + bench smoke
#   ./ci.sh -short   # skip the slow shape tests (Figure 13/14 case studies)
#
# Pure Go, standard library only — no tools beyond the go toolchain.
set -eu
cd "$(dirname "$0")"

echo "== gofmt -l =="
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

# One-path guard: the event calendar is the only engine and every modeled
# wait has one blocking path (docs/PERFORMANCE.md, "Execution model"). A
# scheduler nil-check, the removed engine's name, or a host-time grace
# tier coming back is a second path coming back.
echo "== one-path guard =="
if grep -rnE 'sched (!=|==) nil|EngineGoroutine|WaitGrace|timeoutCh' --include=*.go internal cmd *.go; then
    echo "ci: FAIL — a second blocking path, engine, or host-grace tier is back (matches above)" >&2
    exit 1
fi
# The same for the hand-off: PE bodies are coroutines the run's driver
# resumes, and iter.Pull is how — in one place. A per-PE park channel, a
# WaitGroup joining PE goroutines, or the channel engine's dispatch/grant/
# enter coming back is the Go scheduler coming back into every hand-off.
if grep -nE 'park +chan|sync\.WaitGroup|func \(s \*evsched\) (dispatch|grant|enter)\(' \
    internal/core/engine.go internal/core/workpool.go internal/core/run.go; then
    echo "ci: FAIL — a channel or WaitGroup hand-off is back in the calendar (matches above)" >&2
    exit 1
fi
if [ "$(cat internal/core/*.go | grep -c 'iter\.Pull(')" != 1 ]; then
    echo "ci: FAIL — iter.Pull( must appear exactly once in internal/core (workpool.go's spawnPE)" >&2
    exit 1
fi

# No-atomics guard: one PE of a run executes at a time, so per-run state
# and symmetric memory belong to whoever holds the run's baton and nothing
# under core.Run defends against a second running PE (docs/PERFORMANCE.md,
# "Lock inventory"; internal/core/doc.go, "Execution"). sync/atomic in the
# packages only core.Run drives, sync outside the cross-run pools
# (engine.go's arenaPool, observerPool and replayCache, workpool.go's
# peWorkerMu), or
# one of the deleted defences by name — the atomic word helpers, a
# compare-and-swap (and the retry loop it needs), the scratch shards, the
# abort Once, the MCS releaser's wait for a successor — is that defence
# coming back. go test -race below is the oracle that none was needed.
echo "== no-atomics guard =="
PER_RUN=$(find internal/core internal/mesh internal/fault -name '*.go' ! -name '*_test.go')
CORE_UNPOOLED=$(find internal/core -name '*.go' ! -name '*_test.go' ! -name engine.go ! -name workpool.go)
if grep -nE '"sync/atomic"|atomicmem|scratchShard|abortOnce|wkMCSSucc|CompareAndSwap' $PER_RUN ||
    grep -n '"sync"' $CORE_UNPOOLED ||
    ls internal/core/atomicmem*.go 2>/dev/null; then
    echo "ci: FAIL — a defence against a second running PE is back under core.Run (matches above);" >&2
    echo "    one PE runs at a time: per-run state and symmetric memory belong to the baton holder" >&2
    exit 1
fi

# Inline guard: an elemental op costs its memory access only while the
# compiler folds Ref.At, Ref.Slice, Ref.SliceChecked and the elemental
# fast-path test (wordOn) into their callers and keeps the Ref in
# registers across them (docs/PERFORMANCE.md, "The data path"). A call or
# a line added to one of them can push it past the inlining budget of 80
# without any test noticing; this stage does. Its twin, Ref staying four
# fields and 24 bytes, is TestRefBoundsSurface's.
echo "== inline guard =="
INLINE_OUT=$(go build -gcflags=-m ./internal/core 2>&1)
for FN in At Slice SliceChecked wordOn; do
    # "Ref[go.shape.int64].At" for a method, "wordOn[go.shape.int64]" for a function.
    PAT="(Ref\\[go\\.shape\\.[a-z0-9]+\\]\\.)?$FN(\\[go\\.shape\\.[a-z0-9]+\\])?"
    if ! echo "$INLINE_OUT" | grep -qE "can inline $PAT\$"; then
        echo "ci: FAIL — the compiler no longer inlines $FN (go build -gcflags=-m=2 ./internal/core prints its cost" >&2
        echo "    against the budget). Measured on bfs-gets wall_s: At as a real call +5 %; a Ref the compiler cannot" >&2
        echo "    keep in registers (a fifth field), which is what a call used to cost on top, +30 %" >&2
        exit 1
    fi
done
# The copy-cost memo's hit path (cache.(*Memo).Lookup, cost 70) inlines
# into chargeXfer, the one call every transfer's core makes: a hit is then
# a hash, a load and a compare (docs/PERFORMANCE.md, "Observer tails").
if ! echo "$INLINE_OUT" | grep -qF 'inlining call to cache.(*Memo).Lookup'; then
    echo "ci: FAIL — the compiler no longer inlines cache.(*Memo).Lookup into internal/core (go build -gcflags=-m=2" >&2
    echo "    ./internal/cache prints its cost against the budget of 80). Measured on bfs-gets wall_s: Lookup as a real" >&2
    echo "    call +5.6 % (6 alternating pairs, 6 of 6 slower)" >&2
    exit 1
fi

# Shadow guard: a sanitizer record carries its issuer's epoch — one
# component — not a snapshot of the issuer's vector clock (ISSUE 20; the
# rule and why one component is enough are internal/sanitize's package
# doc, "Epochs"). A vclock field inside accessRec, or vclock.clone() coming
# back into non-test source, is a per-access allocation and an O(NPEs)
# ordering test coming back. The clock-snapshot design survives as
# reference_test.go, the differential oracle.
echo "== shadow guard =="
SAN_SRC=$(find internal/sanitize -name '*.go' ! -name '*_test.go')
if grep -nE 'clone\(\)' $SAN_SRC ||
    sed -n '/^type accessRec struct/,/^}/p' internal/sanitize/sanitize.go | grep -nE '\bvclock\b|\[\]uint64'; then
    echo "ci: FAIL — a clock snapshot is back in the sanitizer's shadow records (matches above);" >&2
    echo "    ISSUE 20's rule: records hold epochs, ordering is one compare, nothing is cloned per access" >&2
    exit 1
fi

# -race slows the case-study shape tests past go test's default 10m
# per-package timeout; -short skips them, the full run needs the headroom.
echo "== go test -race -timeout 45m ./... $* =="
go test -race -timeout 45m "$@" ./...

# Bench smoke: rerun the probe suite and diff it against the committed
# baseline. Virtual time is deterministic, so on an unmodified tree this
# compares exactly. A drift past 5% warns (calibration moved: refresh
# BENCH_baseline.json deliberately and explain it in the commit); past
# 25% it fails the gate outright.
echo "== bench smoke: probe suite vs BENCH_baseline.json =="
SMOKE=$(mktemp /tmp/tshmem-smoke.XXXXXX.json)
PPROF=$(mktemp /tmp/tshmem-pprof.XXXXXX.pb.gz)
trap 'rm -f "$SMOKE" "$PPROF"' EXIT
go run ./cmd/tshmem-bench -json "$SMOKE"
if ! go run ./cmd/tshmem-bench -compare BENCH_baseline.json "$SMOKE" -threshold 25%; then
    echo "ci: FAIL — probe metrics regressed more than 25% vs BENCH_baseline.json" >&2
    exit 1
fi
if ! go run ./cmd/tshmem-bench -compare BENCH_baseline.json "$SMOKE" -threshold 5% > /dev/null; then
    echo "ci: WARNING — probe metrics drifted more than 5% vs BENCH_baseline.json;"
    echo "    if intentional, regenerate it: go run ./cmd/tshmem-bench -json BENCH_baseline.json"
fi

# Sanitize smoke: the library's own probes must be synchronization-clean
# under the happens-before checker, and the deliberately racy programs in
# internal/sanitize's tests must be flagged (they run as part of go test
# above; this stage exercises the TSHMEM_SANITIZE env + CLI plumbing on
# a real workload end to end). docs/OBSERVABILITY.md documents the
# diagnostic schema.
#
# A clean verdict counts only if the checker forgot nothing on the way to
# it: a probe that prints the shadow-loss warning (Report.SanitizerLoss
# non-zero — records evicted, an edge table reset) fails here and in the
# kernel smoke below. The differential oracle and the shadow's cost tests
# run three more times under the detector first.
echo "== sanitize smoke: probes clean and loss-free under the happens-before checker =="
go test -race -count=3 ./internal/sanitize
# sanitized_probe ID [flags]: run one probe under the strict sanitizer; fail
# if it is not clean or if the shadow lost state — other than the loss
# SAN_LOSS_PINNED spells out, for the one probe that has one (kernel smoke).
sanitized_probe() {
    SAN_OUT=$(TSHMEM_SANITIZE=1 go run ./cmd/tshmem-bench -sanitize -probe "$@")
    if echo "$SAN_OUT" | grep 'WARNING: sanitizer shadow state lost' | grep -vF "(${SAN_LOSS_PINNED:-none})"; then
        echo "ci: FAIL — probe $* ran past a sanitizer cap (warning above); its clean verdict is incomplete" >&2
        exit 1
    fi
}
for P in put bcast barrier; do
    sanitized_probe "$P"
done

# Sync-algo smoke: every selectable barrier algorithm must run the
# barrier probe sanitizer-clean (the library algorithms publish the same
# happens-before edges as the paper's chain; docs/SYNC.md), and the
# crossover sweep must render end to end. The default-algorithm
# byte-identity is already enforced by the cmp below — ProbeOpts zero
# values select the legacy algorithms.
echo "== sync-algo smoke: probes clean under every barrier algorithm + sweep =="
for ALGO in linear tmc-spin counter dissemination tournament mcs-tree; do
    sanitized_probe barrier -barrier-algo "$ALGO"
done
for ALGO in cas ticket mcs; do
    sanitized_probe barrier -lock-algo "$ALGO"
done
go run ./cmd/tshmem-bench -sweep-algos > /dev/null

# Profile smoke: the causal profiler must explain a probe end to end —
# the profiled barrier probe's output has to blame the barrier machinery
# by name, and the pprof export must be readable by an unmodified
# `go tool pprof` (docs/OBSERVABILITY.md). Profiling is observation-only:
# the -json suite above runs with Config.Profile off, so the baseline
# byte-identity cmp in the fault smoke below doubles as the gate that a
# profiler-off run does not move a single modeled picosecond.
echo "== profile smoke: blame ledger + critical path + pprof export =="
PROF_OUT=$(go run ./cmd/tshmem-bench -probe barrier -profile -critical-path)
echo "$PROF_OUT" | grep 'barrier.wait' > /dev/null || {
    echo "ci: FAIL — profiled barrier probe never blames barrier.wait" >&2
    echo "$PROF_OUT" >&2
    exit 1
}
echo "$PROF_OUT" | grep 'critical path' > /dev/null || {
    echo "ci: FAIL — -critical-path printed no critical path" >&2
    echo "$PROF_OUT" >&2
    exit 1
}
go run ./cmd/tshmem-bench -probe barrier -pprof "$PPROF" > /dev/null
go tool pprof -top "$PPROF" | grep 'barrier.wait' > /dev/null || {
    echo "ci: FAIL — go tool pprof cannot read the profiler's protobuf export" >&2
    exit 1
}

# Alloc smoke: the uninstrumented Put and Barrier fast paths must stay
# allocation-free (docs/PERFORMANCE.md) — including the sanitizer-off
# and profiler-off hook sites (pe.san and pe.prof stay nil), so
# TSHMEM_SANITIZE is explicitly cleared here and the benchmarks leave
# Config.Profile unset. A fixed -benchtime keeps this fast; -benchmem
# prints "N allocs/op" which we grep for nonzero N.
echo "== bench-alloc smoke: Put/Barrier must report 0 allocs/op =="
ALLOC_OUT=$(env -u TSHMEM_SANITIZE go test ./internal/bench -run '^$' \
    -bench '^(BenchmarkPut|BenchmarkBarrier)$' -benchtime 100x -benchmem)
echo "$ALLOC_OUT"
if echo "$ALLOC_OUT" | grep -E 'Benchmark(Put|Barrier)\b' | grep -vE '\s0 allocs/op'; then
    echo "ci: FAIL — steady-state Put/Barrier paths allocate; see docs/PERFORMANCE.md" >&2
    exit 1
fi
# The benchmarks above observe nothing, so BenchmarkBarrier times the
# computed chain; TestBarrierZeroAllocs holds it to zero by count, for an
# all-PEs and a subset barrier, unobserved and observed: the instance a slot
# of the set's cached state, the hops beside it, no packet built
# (docs/PERFORMANCE.md, "Execution model").
env -u TSHMEM_SANITIZE go test ./internal/core -run '^TestBarrierZeroAllocs$' -count=1

# Fault smoke: with faults off the probe JSON must be byte-identical to
# the committed baseline — the injection hook sites are nil-guarded
# no-ops, so arming nothing may not move a single modeled picosecond
# (docs/ROBUSTNESS.md). The threshold compare above tolerates drift;
# this does not. Then the demo stall plan must terminate (bounded waits,
# zero hangs) and surface a timeout diagnostic naming the stalled PE.
echo "== fault smoke: faults-off byte-identity + bounded-wait demo =="
if ! cmp -s BENCH_baseline.json "$SMOKE"; then
    echo "ci: FAIL — faults-off probe JSON differs from BENCH_baseline.json byte-for-byte;" >&2
    echo "    fault hooks must be exact no-ops when Config.Faults is nil" >&2
    exit 1
fi
FAULT_OUT=$(go run ./cmd/tshmem-bench -faults 'stall:pe=3,q=0')
echo "$FAULT_OUT" | grep 'fault event 0' > /dev/null || {
    echo "ci: FAIL — demo stall plan produced no attributed fault trigger" >&2
    echo "$FAULT_OUT" >&2
    exit 1
}
echo "$FAULT_OUT" | grep 'timeout' | grep 'PE 3' > /dev/null || {
    echo "ci: FAIL — demo stall plan produced no timeout diagnostic naming PE 3" >&2
    echo "$FAULT_OUT" >&2
    exit 1
}
# A dead tile drops the chain barrier's signal at its sender, the drop path
# the stall demo (which swallows it at the receiving queue) does not reach.
DEAD_OUT=$(go run ./cmd/tshmem-bench -faults 'tiledead:pe=5,start=2000ns')
echo "$DEAD_OUT" | grep '^diagnostic: timeout' | grep 'fault event 0' > /dev/null || {
    echo "ci: FAIL — dead-tile plan produced no timeout diagnostic attributed to fault event 0" >&2
    echo "$DEAD_OUT" >&2
    exit 1
}
# An end-less stall on queue 1 drops every start_pes report to PE 3, so the
# launcher's walk of the exchange must stop PEs in init, blamed on the plan.
INIT_OUT=$(go run ./cmd/tshmem-bench -faults 'stall:pe=3,q=1')
echo "$INIT_OUT" | grep '^diagnostic: timeout' | grep 'blocked in init' | grep 'fault event 0' > /dev/null || {
    echo "ci: FAIL — start_pes stall plan produced no init timeout diagnostic attributed to fault event 0" >&2
    echo "$INIT_OUT" >&2
    exit 1
}

# Big-mesh smoke: the sparse mesh layer must keep a 64x64 synthetic
# geometry at kilobytes (the memory gate fails construction past 32 MiB)
# and sustain the 4096-PE and the 128x128, 16 384-PE barrier probes with
# O(n) host memory and the reference makespans (docs/ARCHITECTURES.md).
# The geometry gate and the 4096-PE leg run inside the -race pass above
# too (the 16 384-PE leg skips there: the detector caps goroutines at
# 8128); this stage runs them uninstrumented, where the launcher-side
# start_pes replay and the calendar's ready heap make the probes 0.2 s and
# 1.2 s, so the 16 384-PE leg's host-time ceiling and the timeout are the
# gates against an n^2 launch or an O(n) grant coming back (the literal
# exchange took 7.5 min at 4096 PEs, the scanning grant 6.6 s at 16 384).
# TestLaunchScaling prints the 256 -> 1024 PE host-time ratio; it reports
# and never fails. TestLaunchBytesPerPE is the same memory bar without the
# coroutine stacks: what a warm 256-PE launch allocates per PE (it skips
# under -race, so this is where it runs).
echo "== big-mesh smoke: 64x64 geometry memory gate + 4096- and 16384-PE barrier probes + bytes per PE =="
go test ./internal/mesh -run '^TestBigMeshGeometryMemory$' -count=1
go test ./internal/core -run '^TestBigMeshBarrierProbe$|^TestLaunchScaling$|^TestLaunchBytesPerPE$' -count=1 -timeout 2m -v

# Race smoke: virtual time must not depend on the host schedule. The
# calendar runs one PE at a time, so the detector finds nothing unless the
# single-baton invariant breaks; these are the tests that pinned the ways
# it once could (a WaitUntil polling between a watched store and its
# visibility stamp, a profiled lock phase whose winner the host picked,
# two transfers reaching the chip-pair wire in host order), plus the one
# path where the calendar's deleted mutex did real work: deadlock
# resolution, which writes the calendar while no PE holds the baton and
# must grant last. The coroutine switch between the driver and a PE is what
# orders one baton holder's writes before the next one's reads (it is
# race-instrumented as a release/acquire pair), so this stage is also the
# oracle for "the switch carries the happens-before edge the park channel
# used to", including across the two hazards: a run driven for a caller
# locked to its OS thread, and a driver unwound by a body's runtime.Goexit
# whose loop a fresh goroutine takes over. The lock tests are here for the
# words they hammer: contended Swap/CSwap/FAdd and the three releases are
# plain loads and stores of symmetric memory, which only the baton makes
# indivisible. The next two are the observer pool's: a returned Report, or
# a copy of a counter block, that still shared memory with a later or a
# concurrent run's recorders would be a write the detector sees (ISSUE 21).
# The last two are what runs may and may not share (ISSUE 22): the copy-cost
# memo belongs to one run — hoisted to the process or to a model two runs
# use, concurrent runs write one table — and the replay cache's clocks are
# shared by every run of a shape, so two runs that miss on a cold shape at
# once must both store without either writing what the other reads.
# After those, the computed chain barrier's ways out (ISSUE 24): an abort, a
# Goexit takeover or a failing peer readies members parked in the
# rendezvous from outside it, a released member must not ready them
# again, and a member queued for the driver to forward the wait signal
# must unwind instead. Last, the computed chain under every observer mode
# (ISSUE 25): the driver's forwarding turns feed a parked member's recorder
# and profiler, which only the baton makes that member's. They run three
# more times.
echo "== race smoke: golden matrix + profile + flag chain + multichip ring + deadlock abort + hand-off hazards + contended locks + observer pool + memo scope + replay cache + barrier ways out + observed chain, 3x =="
go test -race ./internal/core ./internal/stats \
    -run 'TestEngineEquivalenceMatrix|TestProfile|TestFlagChain|TestMultichipRing|TestEngineEventDeadlockAborts|TestRunFromLockedOSThread|TestBodyGoexitAborts|TestLockAlgoMutualExclusion|TestLockAlgoClearByNonHolder|TestLockMCSReleaseAfterSuccessorWithdrew|TestReportSurvivesNextRun|TestCountersCopyIsDeep|TestMemoIsPerRun|TestReplayCacheConcurrentColdShape|TestChainBarrierEveryWayOut|TestChainBarrierReleaseMeetsAbort|TestChainBarrierForwardMeetsAbort|TestChainBarrierCollectivesMatchLiteral' -count=3

# Hand-off smoke: a grant must not re-enter the Go scheduler (docs/
# PERFORMANCE.md, "The switch"). TestHandoffStaysOffScheduler counts the
# runtime's own scheduling events across 36 000 hand-offs of a 36-PE barrier
# loop (0-2 sampled passes; the channel hand-off read 2 265 against a bound
# of 450). It is part of every go test run above as well; it runs alone here
# so that a scheduler coming back into the grant path has a stage that names
# it. The symptom a user would see — the same loop slower at GOMAXPROCS
# $(nproc) than at 1 — is not gated: on this 2-vCPU host the ratio read
# 0.98-1.09 after the change and 1.10-1.20 before it, too close for a
# wall-clock bound that must not flake; the benchmark's core.nproc_ratio
# rung reports it.
echo "== hand-off smoke: scheduler passes per hand-off =="
go test ./internal/core -run '^TestHandoffStaysOffScheduler$' -count=1

# Arena smoke: every run's common-memory segment is recycled, so a pooled
# segment that is not entirely zero, or anything still writing one after
# Run returned, corrupts a later, unrelated run. The detector and three
# repeats would show the second.
echo "== arena smoke: zeroing invariant + quiescent check-in, race, 3x =="
go test -race ./internal/core -run 'TestArenaZeroingInvariant|TestArenaQuiescence' -count=3

# Cross-architecture smoke: the chip-family sweep must render end to end
# (Tilera + Epiphany columns; docs/ARCHITECTURES.md). Epiphany sanitizer
# coverage lives in the -race pass above (TestPropertyConformanceNewFamilies
# runs both new families with the checker on).
echo "== cross-architecture smoke: chip-family sweep =="
go run ./cmd/tshmem-bench -sweep-chips > /dev/null

# Kernel smoke: the scenario corpus (internal/kernels; EXPERIMENTS.md
# "Choosing a kernel for a sweep") must run sanitizer-clean. Each probe
# is self-verifying — it compares the distributed
# output against the kernel's serial oracle before reporting — so a
# zero exit here is a differential-correctness check, not just a crash
# check. The kernel probes are deliberately NOT in the baseline suite;
# the cmp gates above already prove BENCH_baseline.json is untouched.
#
# sort, stencil and wordcount must also be loss-free (sanitize smoke
# above). bfs at the probe's size cannot be: its first scan phase reads
# about 320 depth words of each PE's 80-word block, from all 8 PEs, with
# no synchronization between them — more distinct records in one phase
# than a region's list holds (maxRecsPerRegion, 256), so no retirement at
# the next barrier comes soon enough. It evicts 1 233 records (8 184, and
# unreported, before ISSUE 20); the count is deterministic and pinned, so
# a shadow that forgets more fails here.
echo "== kernel smoke: scenario corpus oracle-verified =="
for K in sort stencil wordcount; do
    sanitized_probe "$K"
done
SAN_LOSS_PINNED='0 diagnostics dropped, 1233 shadow records evicted, 0 edge-table resets' sanitized_probe bfs
go run ./cmd/tshmem-bench -sweep-kernels > /dev/null

# Fuzz smoke: run each native fuzz target briefly against its committed
# seed corpus plus fresh random inputs. Failures minimize into
# testdata/fuzz/<target>/ — commit the minimized case as a regression
# seed. (A fuzz run only accepts one target per invocation.)
echo "== fuzz smoke: 10s per target =="
go test ./internal/sanitize -run '^$' -fuzz '^FuzzStridedOverlap$' -fuzztime 10s
go test ./internal/sanitize -run '^$' -fuzz '^FuzzCheckerDifferential$' -fuzztime 10s
go test ./internal/alloc -run '^$' -fuzz '^FuzzAlloc$' -fuzztime 10s
go test ./internal/kernels -run '^$' -fuzz '^FuzzSampleSortPartition$' -fuzztime 10s
go test ./internal/kernels -run '^$' -fuzz '^FuzzBFSFrontier$' -fuzztime 10s
go test ./internal/core -run '^$' -fuzz '^FuzzChainBarrier$' -fuzztime 10s
go test ./internal/stats -run '^$' -fuzz '^FuzzMergeEvents$' -fuzztime 10s

# Examples smoke: every example program must build and run to completion
# on a small input. Exit status is the check; output is the user's.
echo "== examples smoke: build + run all examples =="
go run ./examples/quickstart > /dev/null
go run ./examples/heat2d -n 64 -pes 4 -iters 20 > /dev/null
go run ./examples/fft2d -n 64 -pes 4 > /dev/null
go run ./examples/summa -n 64 -g 2 > /dev/null
go run ./examples/cbir -images 200 -pes 4 > /dev/null
go run ./examples/multichip -pes 4 -chips 2 > /dev/null
go run ./examples/kernels -pes 4 -size 200 > /dev/null

echo "ci: OK"
