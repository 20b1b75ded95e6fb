GO ?= go

.PHONY: build test race fmt-check lint lint-sarif check golden fuzz-smoke cli-smoke bench bench-query bench-paged bench-update soak govern-torture

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt-check fails when any Go file in the tree is not gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# lint runs go vet plus the project's own analyzers (one standalone
# ordlint run over the source tree): the per-package checks
# (encoding-dispatch exhaustiveness, raw-SQL construction, error wrapping,
# and pin pairing and span lifetime, two configurations of one release
# walker) and the interprocedural contract checks (lock order, WAL-first
# durability, view immutability, atomic-access consistency). staticcheck
# runs too when it is on PATH, and its findings fail the target; it is
# optional locally.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/ordlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# lint-sarif runs the full analyzer suite and writes ordlint.sarif (SARIF
# 2.1.0, the interchange format code-scanning UIs ingest). The exit status
# still reflects findings; the log is written either way, which is what lets
# CI upload it as an artifact even from a failing run.
lint-sarif:
	$(GO) run ./cmd/ordlint -json ./... > ordlint.sarif

# check runs the analyzer self-tests (each analyzer against its testdata,
# plus the ordlint driver's registry and -list golden) and fails if
# runtime.SetFinalizer appears in non-test Go outside benchmark/: page ids
# belong to the writer, never to the collector.
check:
	$(GO) test ./internal/lint/... ./cmd/ordlint/
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'runtime\.SetFinalizer' . || \
		{ echo "check: runtime.SetFinalizer outside tests and benchmark/"; exit 1; }

# golden rewrites every golden file: the EXPLAIN goldens and the work ledger
# (testdata/) and ordlint's -list catalog. A change explains every row its
# diff to testdata/work.golden moves.
golden:
	$(GO) test . -run 'TestExplainGolden|TestWorkLedger' -update
	$(GO) test ./cmd/ordlint/ -run TestListGolden -update

fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/sqldb/sqlparse/
	$(GO) test -fuzz FuzzFromBytes -fuzztime 10s ./internal/core/dewey/
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/core/xpath/
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/xmltree/
	$(GO) test -fuzz FuzzLoadEvents -fuzztime 10s ./internal/core/shred/
	$(GO) test -fuzz FuzzVerifyPage -fuzztime 10s ./internal/sqldb/pagefile/
	$(GO) test -fuzz FuzzReplace -fuzztime 10s ./internal/sqldb/btree/
	$(GO) test -fuzz FuzzReseek -fuzztime 10s ./internal/sqldb/btree/
	$(GO) test -fuzz FuzzTranslateOracle -fuzztime 10s ./internal/core/translate/
	$(GO) test -fuzz FuzzPlanOrder -fuzztime 10s ./internal/sqldb/
	$(GO) test -fuzz FuzzRowCodec -fuzztime 10s ./internal/sqldb/sqltypes/

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
# times, rows renumbered per cycle, allocation per cycle, the WAL's bytes
# and fsyncs per cycle on durable stores, and the layer attribution of an
# update cycle — B+tree nodes and heap pages read per cycle and rows
# examined per result. A report, not a gate: TestRenumberingStatementsConstant
# asserts the statement count and TestInsertWorkIndependentOfDocumentSize the
# rows an append examines, in go test.
bench-update:
	bash benchmark/run.sh --workload update_durable --seed 7 --seconds 20 --trace 1 | \
		grep -E '^(update\.|ordxml\.alloc_mb_per_cycle\.|wal\.|btree\.node_reads_per_cycle\.|heap\.page_reads_per_cycle\.|exec\.rows_examined_per_result\.)'

# soak runs the model harness (model_test.go) with long seeds under the race
# detector and the collector at GOGC=1 from process start: ORDXML_SOAK is
# "seeds:ops" per configuration and fault plug-in, so the crash and I/O-error
# rounds on the simulated disk run the longer sessions too. The page-lifetime
# tests the harness does not cover (closed-store collection, the deterministic
# manifest) and the storage packages' page-ownership and beyond-RAM tests run
# alongside.
soak:
	ORDXML_SOAK=2:96 GOGC=1 $(GO) test -race -count=1 -timeout 60m -run \
		'TestModel|TestLifetime|TestClosedDurableStoreIsCollected|TestCheckpointManifestDeterministic' .
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
