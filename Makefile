GO ?= go

.PHONY: build test race fmt-check lint lint-sarif check fuzz-smoke cli-smoke bench bench-query bench-paged bench-update torture govern-torture gc-stress

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt-check fails when any Go file in the tree is not gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# lint runs go vet plus the project's own analyzers: the per-package checks
# (encoding-dispatch exhaustiveness, pin pairing, raw-SQL construction, span
# lifetime, error wrapping) and the interprocedural contract checks (lock
# order, WAL-first durability, view immutability, atomic-access consistency).
# staticcheck runs too when it is on PATH; it is optional locally.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/ordlint ./...
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; skipping"

# lint-sarif runs the full analyzer suite and writes ordlint.sarif (SARIF
# 2.1.0, the interchange format code-scanning UIs ingest). The exit status
# still reflects findings; the log is written either way, which is what lets
# CI upload it as an artifact even from a failing run.
lint-sarif:
	$(GO) run ./cmd/ordlint -json ./... > ordlint.sarif

# check runs the analyzer self-tests (each analyzer against its testdata)
# and fails if runtime.SetFinalizer appears in non-test Go outside
# benchmark/: page ids belong to the writer, never to the collector.
check:
	$(GO) test ./internal/lint/...
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'runtime\.SetFinalizer' . || \
		{ echo "check: runtime.SetFinalizer outside tests and benchmark/"; exit 1; }

fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/sqldb/sqlparse/
	$(GO) test -fuzz FuzzFromBytes -fuzztime 10s ./internal/core/dewey/
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/core/xpath/
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/xmltree/
	$(GO) test -fuzz FuzzVerifyPage -fuzztime 10s ./internal/sqldb/pagefile/
	$(GO) test -fuzz FuzzTranslateOracle -fuzztime 10s ./internal/core/translate/

# cli-smoke is the command-line round trip through a store directory: for
# each encoding, xmlshred -save shreds a generated catalog into a durable
# store, the directory must hold exactly the three store files, and
# xmlquery -db on it must print what xmlquery prints for the XML file itself.
cli-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/bin/ ./cmd/xmlgen ./cmd/xmlshred ./cmd/xmlquery; \
	$$tmp/bin/xmlgen -kind catalog -items 20 > $$tmp/doc.xml; \
	for enc in global local dewey; do \
		dir=$$tmp/store-$$enc; \
		$$tmp/bin/xmlshred -enc $$enc -save $$dir $$tmp/doc.xml > /dev/null; \
		files=$$(ls $$dir | tr '\n' ' '); \
		[ "$$files" = "meta.db pages.db wal.log " ] || { echo "cli-smoke $$enc: $$dir holds $$files"; exit 1; }; \
		$$tmp/bin/xmlquery -db $$dir "//item[2]/name" > $$tmp/db.out; \
		$$tmp/bin/xmlquery -enc $$enc $$tmp/doc.xml "//item[2]/name" > $$tmp/xml.out; \
		diff $$tmp/xml.out $$tmp/db.out; \
		echo "cli-smoke $$enc: ok ($$(tail -1 $$tmp/db.out))"; \
	done

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# bench-query is the traced ordbench run behind EXPERIMENTS.md E3's
# set-at-a-time and join-order tables, on a seed other than the benchmark's
# default: the descendant and value-predicate queries, statements, rows
# examined per result, allocation and B+tree reads per cycle. A report, not a
# gate.
bench-query:
	bash benchmark/run.sh --workload query_mem --seed 7 --seconds 20 --trace 1 | \
		grep -E '^(ordxml\.q[6-9]_ms|exec\.statements_per_cycle|exec\.rows_examined_per_result|ordxml\.alloc_mb_per_cycle|btree\.node_reads_per_cycle)\.'

# bench-paged is the traced ordbench run behind EXPERIMENTS.md's buffer-pool
# table, on the same other seed: what the pool hit, missed and evicted per
# cycle (and its layer probes), allocation per cycle and the descendant query
# on durable stores. A report, not a gate: TestPagedRepeatedQueryHitsPool
# asserts the pool serves a repeated query, deterministically, in go test.
bench-paged:
	bash benchmark/run.sh --workload query_paged --seed 7 --seconds 20 --trace 1 | \
		grep -E '^(bufpool\.|ordxml\.alloc_mb_per_cycle\.|ordxml\.q6_ms\.)'

# bench-update is the traced ordbench run behind EXPERIMENTS.md's
# renumbering rows (E4-E6), on the same other seed: per-operation update
# times, rows renumbered per cycle, allocation per cycle and the WAL's bytes
# and fsyncs per cycle on durable stores. A report, not a gate:
# TestRenumberingStatementsConstant asserts the statement count in go test.
bench-update:
	bash benchmark/run.sh --workload update_durable --seed 7 --seconds 20 --trace 1 | \
		grep -E '^(update\.|ordxml\.alloc_mb_per_cycle\.|wal\.)'

# torture runs the crash-recovery harness with a longer session than the
# default `go test` smoke: a child process is killed at every registered
# failpoint (WAL, buffer-pool flush and eviction, each checkpoint step) and
# the store must recover to an acknowledged prefix.
torture:
	ORDXML_TORTURE_OPS=120 $(GO) test -run '^TestCrashTorture$$' -count=1 -v .

# gc-stress runs the page-lifetime tests under the race detector with the
# collector at GOGC=1 from process start: the seeded lock-step harness over
# every encoding and pool size (its fixed seed list is in TestPageLifetime),
# the reopen loop, exit without Close, closed-store collection, the
# deterministic manifest and page-id ownership. The storage packages' own
# race tests run under `make race`.
gc-stress:
	GOGC=1 $(GO) test -race -count=1 -run \
		'TestPageLifetime|TestLifetime|TestClosedDurableStoreIsCollected|TestCheckpointManifestDeterministic' .
	GOGC=1 $(GO) test -race -count=1 -run 'TestPagedPageOwnership|TestPagedBeyondRAM' ./internal/sqldb/

# govern-torture runs the query-lifecycle governance suite under the race
# detector: the cancellation storm (N readers canceled at random against a
# writer, all three encodings), deadline aborts with goroutine-leak checks,
# memory-budget and admission-shed paths (EXPLAIN ANALYZE included), the
# degraded read-only transitions (WAL append and page-write failures), and the
# cursor tests: streaming, early close, one record per statement per door.
govern-torture:
	$(GO) test -race -count=1 -v -run \
		'TestCancellationStorm|TestQueryDeadlineAborts|TestQueryCancellation|TestSessionQueryTimeout|TestMemoryBudgetAbortsQuery|TestExplainAnalyzeIsGoverned|TestAdmissionControlSheds|TestWALFailureDegradesToReadOnly|TestPageWriteFailureDegradesStore' .
	$(GO) test -race -count=1 -run 'TestQueryRows|TestQueryAborts' ./internal/sqldb/
	$(GO) test -race -count=1 ./internal/govern/
