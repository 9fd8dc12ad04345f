# Developer / CI entry points. `make verify` is the gate every change must
# pass: vet, full build, the full test suite, and a race-detector pass over
# the packages with shared mutable state (the parallel exploration driver
# and the TSO simulation it drives).

GO ?= go

# Measurement repetitions for the BENCH report targets (best of REPS is
# kept). 10 keeps the wall-clock minima stable enough for bench-check's
# regression tolerance even on a contended single-CPU host.
REPS ?= 10

.PHONY: all build test vet race verify explain-smoke bench bench-mem bench-gate bench-parallel bench-snapshot bench-memlayout bench-por bench-dist bench-replay bench-check scrape-smoke clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel driver (internal/core) and the store-buffer machinery it
# exercises concurrently (internal/tso) get a dedicated race-detector pass,
# plus the root-package snapshot and POR equivalence suites, which drive the
# per-worker snapshot caches and the shared fingerprint seen-set under
# Workers=4. The distributed coordinator/worker path (internal/dist over the
# internal/netsim fabric) runs its whole equivalence suite under -race too:
# healthy fleets, a worker killed mid-lease with TTL expiry and requeue,
# duplicate commit delivery, transient outages, and graceful drain must all
# merge bit-identical to serial.
race:
	$(GO) test -race ./internal/core/ ./internal/tso/
	$(GO) test -race ./internal/dist/ ./internal/netsim/
	$(GO) test -race -run 'TestSnapshotEquivalence|TestPOREquivalence' .
	$(GO) test -race -run 'TestChoiceSnapshotEquivalence' ./internal/benchlist/

# Allocation-regression gates: the testing.AllocsPerRun pins that keep the
# paged-layout hot path (guest ops, scenario reset, journal mark/rewind)
# at zero heap allocations once warmed, plus the failure-point cost gates: a
# warmed pre-failure failure point (snapshot capture and POR fingerprint
# memo) allocates nothing, and a capture copies only the decisions and trace
# operations since the previous one, however deep the choice stack.
bench-mem:
	$(GO) test -run 'TestSteadyStateOpAllocations|TestScenarioResetAllocations|TestFailPointAllocations|TestSnapshotCaptureCopiesOnlyDelta' -count=1 ./internal/core/
	$(GO) test -run TestStackOpsAllocFree -count=1 ./internal/pmem/

verify: vet build test race bench-mem

# End-to-end benchmark gate: the harness self-test (tiny workloads end to
# end, planted wrong answers caught, seed determinism), then the exact-count
# gate, which runs the traced run of each in-process workload twice at the
# baseline seed and fails unless every deterministic count repeats.
bench-gate:
	cd jaarubench && $(GO) test .
	bash jaarubench/run.sh --seed 1 --gate

# End-to-end forensics smoke: find the commitstore bug, minimize its choice
# prefix, build the witness, and validate the emitted JSON against the schema.
explain-smoke:
	$(GO) run ./cmd/jaaru-explain -buggy -minimize -json -validate commitstore > /dev/null

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Regenerate the parallel-scaling report (BENCH_parallel.json).
bench-parallel:
	$(GO) run ./cmd/jaaru-perf -parallel BENCH_parallel.json -reps $(REPS)

# Regenerate the snapshot off-vs-on report (BENCH_snapshot.json).
bench-snapshot:
	$(GO) run ./cmd/jaaru-perf -snapshots BENCH_snapshot.json -reps $(REPS)

# Regenerate the POR off-vs-on report (BENCH_por.json): explored-scenario
# reduction and result-equivalence check per workload. Exits nonzero on any
# off/on result mismatch.
bench-por:
	$(GO) run ./cmd/jaaru-perf -por BENCH_por.json -reps $(REPS)

# Regenerate the distributed-exploration report (BENCH_dist.json): serial vs
# a coordinator + worker fleet over the in-process netsim fabric, with an
# instrumented worker-killed-mid-lease pair cross-checked for bit-identical
# results. Exits nonzero on any serial/distributed mismatch.
bench-dist:
	$(GO) run ./cmd/jaaru-perf -dist BENCH_dist.json -reps $(REPS)

# Regenerate the choice-point snapshot stack report (BENCH_replay.json):
# full replay vs the failure-point engine alone vs the default stack, per
# update-heavy workload. Exits nonzero on any result mismatch or if the
# gated RECIPE rows fall below 2x wall clock / 5x replayed-step reduction.
bench-replay:
	$(GO) run ./cmd/jaaru-perf -replay BENCH_replay.json -reps $(REPS)

# Regenerate the paged-memory-layout report (BENCH_memlayout.json). Pass
# BASELINE=<old.json> to compute allocation/speedup deltas against a run
# from a previous revision.
bench-memlayout:
	$(GO) run ./cmd/jaaru-perf -memlayout BENCH_memlayout.json -reps $(REPS) $(if $(BASELINE),-baseline $(BASELINE))

# Bench comparator: regenerate every BENCH report into a scratch dir and diff
# each against its committed baseline. Fails on any row with match=false (an
# equivalence check broke), any row lost from the baseline (coverage shrank),
# or any wall-clock field that regressed beyond TOLERANCE (fraction, default
# 0.20). Pass TOLERANCE=0.60 on hardware unlike the one the baselines were
# recorded on — the match and coverage checks stay exact either way.
BENCHDIR ?= /tmp/jaaru-bench-check
TOLERANCE ?= 0.20
bench-check:
	mkdir -p $(BENCHDIR)
	$(GO) build -o $(BENCHDIR)/jaaru-perf ./cmd/jaaru-perf
	$(BENCHDIR)/jaaru-perf -parallel $(BENCHDIR)/BENCH_parallel.json -reps $(REPS)
	$(BENCHDIR)/jaaru-perf -snapshots $(BENCHDIR)/BENCH_snapshot.json -reps $(REPS)
	$(BENCHDIR)/jaaru-perf -por $(BENCHDIR)/BENCH_por.json -reps $(REPS)
	$(BENCHDIR)/jaaru-perf -dist $(BENCHDIR)/BENCH_dist.json -reps $(REPS)
	$(BENCHDIR)/jaaru-perf -replay $(BENCHDIR)/BENCH_replay.json -reps $(REPS)
	$(BENCHDIR)/jaaru-perf -memlayout $(BENCHDIR)/BENCH_memlayout.json -reps $(REPS)
	for m in parallel snapshot por dist replay memlayout; do \
		$(BENCHDIR)/jaaru-perf -check $(BENCHDIR)/BENCH_$$m.json \
			-baseline BENCH_$$m.json -tolerance $(TOLERANCE) || exit 1; \
	done

# Telemetry scrape smoke: boot a coordinator on an ephemeral TCP port, run a
# real worker fleet against it, GET /metrics and /v1/status over the wire,
# and validate the Prometheus exposition with the strict test parser.
scrape-smoke:
	$(GO) test -run TestScrapeSmoke -count=1 ./internal/dist/

clean:
	$(GO) clean ./...
