# Mirrors .github/workflows/ci.yml: `make ci` runs exactly what CI runs.

GO ?= go

.PHONY: all build vet fmt fmt-check test race bench bench-smoke bench-layered metrics crash chaos cover \
	fuzz-smoke serve smoke-server replica failover bench-regression docs-lint loc \
	oracle-mutations staticcheck vulncheck ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	sh scripts/unsafe_allowlist.sh

fmt:
	gofmt -w .

# Fails (like CI) if any file needs reformatting.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test -count=1 ./...

# The WAL's append/wait/close paths race each other in these tests; a
# close/append race once flaked about one run in 40, so they repeat, and
# so do the history's readers beside its appends, sheds and prunes, and
# subscription resumes beside the commits the hub publishes.
race:
	$(GO) test -race -count=1 ./...
	$(GO) test -race -count=30 -run 'GroupCommit|FailedFsync|HistoryReadersRaceShedding|ResumeRacesPublish' . ./internal/storage ./internal/server

# Full benchmark run (slow; use bench-smoke for a compile-and-run check).
bench:
	$(GO) test -bench=. -run '^$$' ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# The layered benchmark (benchmark/, a module of its own that tier-1
# `go vet ./...` and `go test ./...` do not reach): vet it, so that a
# signature it compiles against cannot be removed unnoticed, run its
# tests, then a smoke run of all four workloads with their oracles.
# `bash benchmark/run.sh` is the full run.
bench-layered:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	cd benchmark && $(GO) test -count=3 -run TestSmokeRunPassesEveryCheck .
	bash benchmark/run.sh -smoke

# The registries of two Views (cmd/ivm -metrics): views.dl, whose hop and
# reach share a DRed stratum (the dred_*, replay and version series), then
# the nonrecursive tri_hop.dl under -strategy counting with one delta file
# applied (the counting_* series, moved) — writes metrics.txt and checks
# that every required series is there, so metric-name drift fails. CI's
# "Metrics smoke" step runs this target: the list lives here only.
metrics:
	$(GO) run ./cmd/ivm -program testdata/server/views.dl -data testdata/server/facts.dl -metrics > metrics.txt
	$(GO) run ./cmd/ivm -strategy counting -program testdata/server/tri_hop.dl -data testdata/server/facts.dl \
		-metrics testdata/server/tri_hop_delta.dl >> metrics.txt
	@for m in counting_applies_total dred_ops_total commit_replay_rows_total commit_replay_seconds_count \
			relation_version_rows_linked relation_version_rows_copied \
			eval_heads_built_total eval_heads_borrowed_total \
			planner_replans_total eval_join_probes_total; do \
		grep -q "^$$m " metrics.txt || { echo "metrics.txt lacks $$m" >&2; exit 1; }; \
	done
	@echo "wrote metrics.txt"

# Fault-injection matrix: recovery after simulated crashes must match a
# full recomputation in every case. The -v log is the matrix report.
crash:
	$(GO) test -count=1 -run TestCrashMatrix -v ./internal/storage/crashtest > crash-matrix.txt; s=$$?; cat crash-matrix.txt; exit $$s

# The exactly-once chaos gauntlet under -race (faultnet proxy, >=20%
# fault rate, kill-and-restart mid-run), plus the quantitative
# fault-injection benchmark report (BENCH_faults.json).
CHAOS_LOG ?= chaos-faults.log
chaos:
	CHAOS_LOG=$(CHAOS_LOG) $(GO) test -race -count=1 -run TestChaosGauntletExactlyOnce ./internal/server
	$(GO) run ./cmd/ivmbench -scale smoke -faults 0.25 -faults-out BENCH_faults.json

# Coverage profile + gate against .github/coverage-baseline.txt.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/, "", $$NF); print $$NF}')"; \
	baseline="$$(cat .github/coverage-baseline.txt)"; \
	echo "total coverage: $${total}% (baseline $${baseline}%)"; \
	awk -v t="$$total" -v b="$$baseline" 'BEGIN { exit !(t+0 >= b+0) }' || { \
		echo "coverage $${total}% fell below the $${baseline}% baseline" >&2; exit 1; }

# 30s of native fuzzing per target (the same twelve as CI).
fuzz-smoke:
	$(GO) test -fuzz FuzzParseUpdate -fuzztime 30s -run '^$$' .
	$(GO) test -fuzz FuzzScanWAL -fuzztime 30s -run '^$$' ./internal/storage
	$(GO) test -fuzz FuzzReplRecord -fuzztime 30s -run '^$$' ./internal/storage
	$(GO) test -fuzz FuzzSQLParse -fuzztime 30s -run '^$$' ./internal/sqlview
	$(GO) test -fuzz FuzzTableOps -fuzztime 30s -run '^$$' ./internal/relation
	$(GO) test -fuzz FuzzGroupTable -fuzztime 30s -run '^$$' ./internal/eval
	$(GO) test -fuzz FuzzCompare -fuzztime 30s -run '^$$' ./internal/value
	$(GO) test -fuzz FuzzOracle -fuzztime 30s -run '^$$' .
	$(GO) test -fuzz 'FuzzParse$$' -fuzztime 30s -run '^$$' ./internal/parser
	$(GO) test -fuzz FuzzParseDelta -fuzztime 30s -run '^$$' ./internal/parser
	$(GO) test -fuzz FuzzParseGoal -fuzztime 30s -run '^$$' ./internal/parser
	$(GO) test -fuzz FuzzTupleFromKey -fuzztime 30s -run '^$$' ./internal/value

# Each one-line bug of scripts/oracle_mutations.sh, put back in a copy of
# the tree, must make TestOracle fail (EXPERIMENTS.md E34, E40).
oracle-mutations:
	bash scripts/oracle_mutations.sh

# Run ivmd against a scratch store with the smoke program (Ctrl-C to
# stop; an acked apply is never lost across the SIGINT shutdown).
SERVE_STORE ?= /tmp/ivmd-store
serve:
	$(GO) run ./cmd/ivmd -store $(SERVE_STORE) \
		-program testdata/server/views.dl -data testdata/server/facts.dl

# The CI server-smoke job: boot ivmd, drive mixed load through the
# client package, SIGTERM, require a clean checkpointed shutdown.
smoke-server:
	sh scripts/server_smoke.sh

# The CI replication-smoke job: primary + follower on temp stores, load,
# kill-and-restart the primary, require follower lag to recover to zero
# with the divergence guard untripped. Also the -race replica suites.
replica:
	$(GO) test -race -count=1 ./internal/replica
	sh scripts/replica_smoke.sh

# The CI failover-smoke job: primary + two followers, writes through a
# follower's forwarding proxy, SIGTERM the primary, `ivmd -promote` the
# caught-up follower, require writes through the surviving follower to
# reach the new leader, then revive the old primary and require both of
# its serving surfaces to be fenced (409 + replica_fenced_total).
failover:
	sh scripts/failover_smoke.sh

# The CI bench-regression guard: a fresh readers run vs the committed
# baseline, then a served-load data point.
bench-regression:
	$(GO) run ./cmd/ivmbench -scale smoke -readers BENCH_current.json \
		-baseline BENCH_readers.json -tolerance 3
	$(GO) run ./cmd/ivmbench -scale smoke -server self -server-out BENCH_server.json

# Docs lint: the README stays within its line budget (deep dives live
# in docs/), and every relative markdown link in README.md and docs/
# resolves to a file that exists.
docs-lint:
	sh scripts/docs_lint.sh

# Lines of non-test Go outside benchmark/ (ROADMAP aim 2's running
# total), gated against .github/loc-ceiling.txt; CI's build job runs the
# same script and writes its line into the summary.
loc:
	@sh scripts/loc.sh

# Lint/vuln scans run in CI unconditionally (installed there via
# `go install`); locally they run only if already on PATH — this repo
# adds no dependencies to the dev container.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

ci: build vet fmt-check loc test race oracle-mutations bench-smoke bench-layered metrics crash chaos cover fuzz-smoke \
	smoke-server replica failover bench-regression docs-lint staticcheck vulncheck
