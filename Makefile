# ProgMP-Go development targets. Everything is stdlib-only and offline.

GO ?= go

.PHONY: all build test test-short race fuzz cover bench bench-run experiments fmt vet lint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

# Ten seconds of each native fuzz target (go test fuzzes one target of
# one package at a time).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/lang/
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime 10s ./internal/analysis/
	$(GO) test -run '^$$' -fuzz FuzzStepBound -fuzztime 10s ./internal/analysis/
	$(GO) test -run '^$$' -fuzz FuzzVerifier -fuzztime 10s ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzBackendsAgree -fuzztime 10s ./internal/semtest/
	$(GO) test -run '^$$' -fuzz FuzzQuiescence -fuzztime 10s ./internal/semtest/
	$(GO) test -run '^$$' -fuzz FuzzQueueModel -fuzztime 10s ./internal/runtime/
	$(GO) test -run '^$$' -fuzz FuzzSentCursor -fuzztime 10s ./internal/mptcp/
	$(GO) test -run '^$$' -fuzz FuzzSendWindow -fuzztime 10s ./internal/mptcp/
	$(GO) test -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s ./internal/obs/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem -run xxx ./...

# The layered benchmark (BENCHMARK.json, bench/README.md): the record of
# performance, with the agreement / 0-alloc / conservation / shard-
# invariance oracles behind its exit status.
bench-run:
	bash bench/run.sh

# Print every table and figure of the paper's evaluation into
# results.txt (untracked: its fig9 and up-call rows are wall time).
# EXPERIMENTS.md's blocks regenerate with
# `go test ./cmd/progmp-experiments -run TestEvaluationGolden -update`.
experiments:
	$(GO) run ./cmd/progmp-experiments -exp all | tee results.txt

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Project-specific static analysis: the DSL admission gate over the
# scheduler corpus and shipped examples, then the Go invariant passes
# (hotpath / deterministic / epochsafe / conventions / testonly — see
# docs/ANALYSIS.md "Go-side invariant passes").
lint:
	$(GO) run ./cmd/progmp-vet -all examples/schedulers
	$(GO) run ./cmd/progmp-analyze ./...

clean:
	$(GO) clean ./...
