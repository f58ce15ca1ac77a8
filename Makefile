GITREV := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: test lint lint-smoke race fuzz cover bench bench-full baseline table serve smoke-serve

test:
	go build ./... && go test ./...

# Static analysis: go vet (of the root module and of the benchmark,
# which is a module of its own that ./... never reaches) plus the
# project linter (cmd/earmac-lint), which enforces the determinism,
# zero-alloc, and fingerprint invariants statically (DESIGN.md §15).
lint:
	go vet ./...
	cd perfbench && go vet ./...
	go run ./cmd/earmac-lint ./...

# Prove the linter gates: it must fail on a fixture seeded with
# violations and pass on the real tree (what the CI lint job runs).
lint-smoke:
	sh scripts/lint-smoke.sh

# Full suite under the race detector (what the CI race job runs).
race:
	go test -race ./...

# Fuzz smoke, 10 s per fuzzer (what the CI fuzz job runs).
fuzz:
	go test -run '^$$' -fuzz '^FuzzBucket$$' -fuzztime 10s ./internal/adversary
	go test -run '^$$' -fuzz '^FuzzIdleClock$$' -fuzztime 10s ./internal/mac/duty
	go test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 10s ./internal/scenario
	go test -run '^$$' -fuzz '^FuzzAdmissible$$' -fuzztime 10s ./internal/scenario

# Statement coverage with a per-package summary. Writes cover.out (the
# profile the CI cover job uploads as an artifact); the summary script
# groups the profile by package, statement-weighted.
cover:
	go test -short -coverprofile=cover.out -coverpkg=./... ./...
	sh scripts/cover-summary.sh cover.out

# Stamp a quick benchmark run for the current revision and gate it
# against the committed baseline (what CI runs).
bench:
	go run ./cmd/earmac-bench -quick -out BENCH_$(GITREV).json -baseline BENCH_baseline.json

# Full (4x) horizons, no gate.
bench-full:
	go run ./cmd/earmac-bench -out BENCH_$(GITREV).json

# Refresh the committed baseline (run on the reference machine, then
# commit BENCH_baseline.json).
baseline:
	go run ./cmd/earmac-bench -quick -out BENCH_baseline.json

table:
	go run ./cmd/earmac-table

# Run the experiment service (content-addressed result cache, progress
# streaming; see README "Serving experiments").
serve:
	go run ./cmd/earmac-serve

# End-to-end service smoke: start earmac-serve, submit a Table 1 config
# twice, assert the second response is a byte-identical cache hit, drain
# on SIGTERM, then restart on the same -cache-dir and assert the disk
# tier serves it again without simulating (what the CI serve-smoke job
# runs).
smoke-serve:
	sh scripts/serve-smoke.sh
