# Development targets; `make check` is the tier-1 gate (format, vet, build,
# test). `make race` additionally runs the suite under the race detector,
# which exercises the sharded pipeline's fan-out and barrier.

GO ?= go

.PHONY: check fmt vet build test race bench bench-smoke

check: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) run ./cmd/surgebench -exp all

# Laptop-scale benchmarks; writes BENCH_hotpath.json (ns/obj, allocs/obj,
# objs/sec) and BENCH_tenancy.json (multi-query ingest scaling) to
# bench-out/ so CI can archive every PR's perf point. The greps assert each
# experiment actually reported the fields CI and the docs quote — if an
# experiment breaks, the smoke run fails loudly instead of silently
# archiving a hollow JSON.
# -obs-overhead-max gates the telemetry's cost on the sharded ingest path
# (median paired obs-on/obs-off ratio): the true overhead measures ~0-1%,
# the estimator's noise floor on a shared runner is ~±3%, and a real
# regression (a lock or allocation on the record path) costs 20%+ — so 5%
# separates signal from noise with margin on both sides.
bench-smoke:
	mkdir -p bench-out
	$(GO) run ./cmd/surgebench -exp hotpath,tenancy -max-exact 1000 -max-approx 10000 -json-dir bench-out -obs-overhead-max 5
	@grep -q '"objs_per_sec"\|"objects_per_sec"' bench-out/BENCH_hotpath.json || { \
		echo "bench-smoke: BENCH_hotpath.json lacks throughput rows; the hotpath experiment broke"; exit 1; }
	@grep -q '"ingest_ack_p50_us"' bench-out/BENCH_hotpath.json || { \
		echo "bench-smoke: BENCH_hotpath.json lacks ingest-ack latency quantiles; the obs histograms broke"; exit 1; }
	@grep -q '"obs_overhead_pct"' bench-out/BENCH_hotpath.json || { \
		echo "bench-smoke: BENCH_hotpath.json lacks obs_overhead_pct; the obs-on-vs-off comparison broke"; exit 1; }
	@grep -q '"wal_overhead_pct"' bench-out/BENCH_hotpath.json || { \
		echo "bench-smoke: BENCH_hotpath.json lacks wal_overhead_pct; the durable-ingest rows broke"; exit 1; }
	@grep -q '"tenancy_scale_pct"' bench-out/BENCH_tenancy.json || { \
		echo "bench-smoke: BENCH_tenancy.json lacks tenancy_scale_pct; the tenancy experiment broke"; exit 1; }
