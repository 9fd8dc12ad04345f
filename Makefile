# Developer / CI entry points. `make verify` is the gate every change must
# pass: vet and gofmt, full build, the full test suite, a race-detector pass
# over the packages with shared mutable state, and the allocation gates. Every
# equivalence check between engine settings (snapshots, choice snapshots,
# POR, workers, distributed) is a named test inside it. `make bench-gate` is
# the one benchmark gate (jaarubench); `explain-smoke` and `scrape-smoke`
# drive the forensics and telemetry surfaces end to end.

GO ?= go

.PHONY: all build test vet race verify explain-smoke bench bench-mem bench-gate scrape-smoke clean

all: verify

build:
	$(GO) build ./...

# vet also fails on any Go file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: files need formatting:"; echo "$$unformatted"; exit 1; fi

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

# Go micro-benchmarks of the root package (paper figures, ablations, and
# per-feature overheads).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Telemetry scrape smoke: boot a coordinator on an ephemeral TCP port, run a
# real worker fleet against it, GET /metrics and /v1/status over the wire,
# and validate the Prometheus exposition with the strict test parser.
scrape-smoke:
	$(GO) test -run TestScrapeSmoke -count=1 ./internal/dist/

clean:
	$(GO) clean ./...
