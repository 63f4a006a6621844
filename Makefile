# neatbound — build/verify targets. Pure-Go module, no external deps.

GO ?= go

# Label for `make bench`'s BENCH_engine.json entry; labels are
# append-only — bench refuses to overwrite an existing one.
BENCH_LABEL ?= current

.PHONY: verify fmt vet build examples docs-check test test-race test-parallel test-pool test-dist test-skip test-mem test-svc test-chaos test-scenarios test-bench bench bench-mem

## verify: the full tier-1 gate — formatting, vet, build (`go build
## ./...` compiles the examples too), the package-doc check, the quick
## pooled-parity, distributed-parity, fast-forward-equivalence,
## memory/compaction, sweep-service, and fault-tolerance checks, the
## benchmark harness's vet and smoke test, and the race test suite
## (~6 min; internal/dist's statistical tests dominate).
verify: fmt vet build docs-check test-pool test-dist test-skip test-mem test-svc test-chaos test-scenarios test-bench test-race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## examples: compile every runnable example (they are ordinary main
## packages, so this is the "does the documented API actually build"
## check).
examples:
	$(GO) build ./examples/...

## docs-check: every package must carry a package doc comment stating
## what it is (and, for the concurrent ones, its ownership contract).
docs-check:
	sh scripts/docs_check.sh

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## test-parallel: quick race pass over just the worker-parallel code
## (worker pool, engine delivery shards, network fan-out, sweep job
## queue, façade).
test-parallel:
	$(GO) test -race ./internal/pool/ ./internal/engine/ ./internal/network/ ./internal/sweep/ .

## test-pool: seconds-long short-mode race pass over the worker pool and
## the pooled delivery/checker parity tests, so the tier-1 gate
## exercises the persistent-pool path on every run.
test-pool:
	$(GO) test -race -short ./internal/pool/
	$(GO) test -race -short -run 'Pool|Pooled' ./internal/engine/ ./internal/consistency/ ./internal/sweep/ .

## test-dist: seconds-long short-mode race pass over the distributed
## sweep driver — partitioning, the worker protocol, in-process
## coordinator/worker parity, reassignment after worker death — plus the
## façade and CLI distributed paths. (The real-subprocess parity tests
## skip under -short; the full `test-race` pass runs them.)
test-dist:
	$(GO) test -race -short -run 'Dist|Partition|Worker|Replicate' ./internal/distsweep/ ./internal/sweep/ ./cmd/sweep/ .

## test-skip: seconds-long short-mode race pass over the event-driven
## round-skipping path and view-class delivery — the Geometric sampler's
## draw-for-draw contract, the network's uniform broadcast slots (incl.
## the lazily allocated drained stamps), the step-vs-fast-forward
## equivalence tests (golden traces, artifact byte-identity, sparse
## regimes, adversary state replay), the view-class pins of seeded
## random configs, and the fold/walk delivery-path counts.
test-skip:
	$(GO) test -race -short -run 'Geometric|Uniform|SendAll|FastForward|ViewClass|DeliveryPath' ./internal/dist/ ./internal/network/ ./internal/engine/ .

## test-mem: ~20 s short-mode race pass over the memory path — the SoA
## arena's compaction query-parity, sparse-ID, and payload-side-table
## tests, the checker retention contract, and golden-trace bit-identity
## under aggressive compaction (docs/memory.md).
test-mem:
	$(GO) test -race -short -run 'Compact|Retention|Payload|Sparse' ./internal/blockchain/ ./internal/consistency/ .

## test-svc: seconds-long short-mode race pass over the sweep service —
## the content-addressed store's crash/corruption/keep-first semantics,
## the service's exactly-once cache/coalesce paths and byte-identity
## with RunSweep, the HTTP/SSE surface and façade client, and the
## sweepd server lifecycle (docs/sweepd.md).
test-svc:
	$(GO) test -race -short ./internal/store/ ./internal/sweepsvc/ ./cmd/sweepd/
	$(GO) test -race -short -run 'SweepClient|SweepRequest' .

## test-chaos: seconds-long short-mode race pass over the
## fault-tolerance layer (docs/faults.md) — the deterministic chaos
## soak (seeded worker kills, hangs, truncation, and corruption with
## exactly-once commits and cold-run byte-identity), the
## checkpoint/resume crash edges, stall detection, respawn backoff,
## permanent-failure fast-fail, and the daemon's job-journal recovery.
## Every fault schedule is seeded and the seed appears in the failure
## message, so a red run replays exactly. (The real-subprocess kill -9
## and stderr-tail tests skip under -short; `test-race` runs them.)
test-chaos:
	$(GO) test -race -short -run 'Chaos|Checkpoint|Resume|Stall|Backoff|Permanent|SweepKey|Journal|StderrTail' \
		./internal/distsweep/ ./internal/store/ ./internal/sweepsvc/ ./cmd/sweepd/ ./cmd/sweep/

## test-scenarios: seconds-long short-mode race pass over the scenario
## layer (docs/scenarios.md) — the stochastic delay policies' delivery
## window and recipient-invariance properties, the partition heal, churn
## selection and weighted mining (incl. the all-ones ≡ unweighted
## identity and the FastForward disarm), the scenario golden traces
## across shard counts and the pool, the interchange/shard-spec fuzz
## seed corpora, and the xval theory cross-checks (every scenario must
## sit on the correct side of the paper's bounds near c*). Every
## stochastic check prints its seed in the failure message, so a red
## run replays exactly.
test-scenarios:
	$(GO) test -race -short -run 'Scenario|Churn|Weighted|Partition|Bursty|CrossCheck|Threshold|Compile|SkewedWeights|ParseRoundTrip|ValidateRejects|Fuzz' \
		./internal/network/ ./internal/engine/ ./internal/scenario/... ./internal/sweep/ ./internal/distsweep/ .

## test-bench: vet and smoke-test the benchmark harness. perfbench/ is
## a nested module that the root `go test ./...` never builds, so this
## is the check that a change to the API it compiles against still
## keeps the benchmark runnable (seconds).
test-bench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## bench: run the façade benchmarks, then append the BENCH_engine.json
## entry labeled $(BENCH_LABEL) — the core count is stamped
## automatically, so entries are comparable across machines. Labels are
## append-only: the measured trajectory is hand-curated per change, so
## overwriting an existing label is refused rather than silently
## rewriting history.
bench:
	@if [ -f BENCH_engine.json ] && grep -q '"label": "$(BENCH_LABEL)"' BENCH_engine.json; then \
		echo "bench: label '$(BENCH_LABEL)' already exists in BENCH_engine.json —" \
			"pick a fresh BENCH_LABEL=<name> (the trajectory is append-only)" >&2; \
		exit 1; \
	fi
	$(GO) test -bench . -benchmem -run '^$$' .
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_engine.json

## bench-mem: the n = 10⁶ sparse-p memory benchmark (n·p = 0.1, 10⁵
## rounds) with fast-forward, arena compaction, and a bounded checker
## retention window: the run mines ~10⁴ blocks but the arena stays
## ~10³ live, and heap_peak_bytes/live_blocks land in the entry (the
## pr7-mem-n1e6 configuration). Same append-only label discipline as
## bench; ~1 min.
bench-mem:
	@if [ -f BENCH_engine.json ] && grep -q '"label": "$(BENCH_LABEL)"' BENCH_engine.json; then \
		echo "bench-mem: label '$(BENCH_LABEL)' already exists in BENCH_engine.json —" \
			"pick a fresh BENCH_LABEL=<name> (the trajectory is append-only)" >&2; \
		exit 1; \
	fi
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_engine.json \
		-n 1000000 -p 1e-7 -delta 10 -nu 0.3 -rounds 100000 -iters 3 \
		-fast-forward -compact-every 2000 -checker-retention 4
