GO ?= go

# DOC_PKGS are the packages whose exported API must be fully documented
# (enforced by `make docs` via cmd/pneuma-doccheck).
DOC_PKGS = ./internal/retriever ./internal/ir ./internal/embed ./internal/bm25 ./internal/pnerr ./internal/server .

.PHONY: verify fmt-check vet asmvet xbuild-arm64 xbuild-other tier1 tier1-scalar race race-smoke fuzz-smoke bench bench-aa serve-smoke docs

# verify is the one-shot local gate every PR must pass: formatting, vet
# (plus an explicit asmdecl pass over the assembly kernels, an arm64
# cross-build so the NEON path cannot rot on amd64-only machines, and
# cross-builds for three more targets so the module stays portable), the
# documentation gate, the tier-1 build+test command from ROADMAP.md
# (which includes the AllocsPerRun budget guards and, in pneuma/benchmark,
# every BENCHMARK.json workload run end to end at 1/50 scale), the
# kernel-heavy tier-1 packages re-run in a process pinned to the scalar
# kernels (so the portable kernels stay proven even on SIMD machines) and
# the vecmath and embed tests built without assembly (purego tag), the
# end-to-end daemon smoke, a short-mode race pass over the concurrent
# serving path (Service scheduler, cold concurrent first turns on an
# unprofiled corpus, the session memo and the shared profile cache,
# cancellation fan-out, disk-backend sessions, the live-ingest churn soak,
# background compaction under churn, Close handing a due compaction to the
# compactor, a disk write durable when it returns at one fsync per touched
# shard, a huge-k Search's bytes), and a 10-second fuzz pass over each binary decoder, over the
# search reply encoder (against encoding/json), over the shard write
# path (a batch of n against n batches of one), over BM25 search and
# statistics (against a naive scan of the live documents), over the SQL
# hash join (against a nested loop evaluating = on every pair), over the
# embedder's token walker (against the allocating Embed and
# NormalizeTokens it replaced), over AsFloat's string screen (against
# strconv.ParseFloat), over ParseTime's layout screens (against the plain
# ordered loop), over a prompt's token count (against counting its
# rendered text) and over column-vector tables (against a row-major
# reference).
verify: fmt-check vet asmvet xbuild-arm64 xbuild-other tier1 tier1-scalar docs serve-smoke race-smoke fuzz-smoke

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# asmvet re-runs just the assembly declaration checker over the SIMD
# kernels. `go vet ./...` already includes asmdecl for the host GOARCH;
# this explicit pass also covers the arm64 stubs via the cross-build
# below and fails fast with a focused message when a kernel's frame or
# argument layout drifts from its Go declaration.
asmvet:
	$(GO) vet -asmdecl ./internal/vecmath/
	@echo "asmvet: ok"

# xbuild-arm64 cross-compiles the whole module for linux/arm64 so the
# NEON kernel path (assembly, build tags, dispatch stubs) stays
# compilable even though CI and dev machines are amd64. Cross-vet runs
# asmdecl against the arm64 assembly as part of the build's type check.
xbuild-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet -asmdecl ./internal/vecmath/
	@echo "xbuild-arm64: ok"

# xbuild-other cross-compiles every package except ./benchmark for
# darwin/arm64 (the NEON kernels off linux), windows/amd64 (a non-unix
# OS) and linux/riscv64 (no assembly: vecmath's scalar-only
# kern_other.go), so the module keeps building off linux/amd64.
# ./benchmark is left out because its runner calls syscall.Getrusage,
# which windows lacks.
xbuild-other:
	@pkgs="$$($(GO) list ./... | grep -v '^pneuma/benchmark$$')"; \
	for target in darwin/arm64 windows/amd64 linux/riscv64; do \
		GOOS=$${target%/*} GOARCH=$${target#*/} $(GO) build $$pkgs || exit 1; \
	done
	@echo "xbuild-other: ok"

tier1:
	$(GO) build ./... && $(GO) test ./...

# tier1-scalar re-runs the kernel-consuming tier-1 packages with
# PNEUMA_FORCE_SCALAR set, which pins the process to the pure-Go kernels
# at init: the scalar tier is both the portability floor and the
# bit-identity oracle, so it must keep passing the same tests the SIMD
# tiers do — on the machines where it would otherwise never run. It also
# runs cmd/pneuma-bench's TestPaperGolden, so the scalar kernels must
# reproduce the paper's tables and figures byte for byte.
# vecmath's TestTierFollowsEnv fails the pass if the pin did not take.
# A second pass builds vecmath and embed, tests included, with the purego
# tag: that is the file set without assembly (kern_other.go,
# dot_generic.go) riscv64 builds from, and each file set must supply the
# names the public kernels and the test tier ladders call.
tier1-scalar:
	PNEUMA_FORCE_SCALAR=1 $(GO) test -count=1 ./internal/vecmath/ ./internal/hnsw/ ./internal/bm25/ ./internal/retriever/ ./cmd/pneuma-bench/
	$(GO) test -count=1 -tags purego ./internal/vecmath/ ./internal/embed/
	@echo "tier1-scalar: ok"

# race runs the concurrency-sensitive packages under the race detector.
race:
	$(GO) test -race . ./internal/retriever/... ./internal/ir/... ./internal/embed/... ./internal/docdb/... ./internal/llm/...

# race-smoke is the short-mode race gate wired into `make verify`: it
# drives N concurrent sessions through one Service (warm, and cold: first
# turns racing to profile corpus tables nothing has profiled yet), runs the
# session-memo tests and concurrent BuildProfile readers on one table,
# cancels a Search mid-fan-out, hammers a disk-backed index with concurrent
# search/delete/flush (compaction included), runs the live-ingest churn
# soak (readers pinned on epoch views while a mutator streams batched
# adds/deletes/flushes, with quiesce parity against a sequential
# replay), exercises background compaction racing a paced ingest stream
# and Close racing a due compaction, holds a huge-k Search to the bytes of
# k = Len(), grows a BM25 term table through repeated doublings under
# concurrent searches, and checks the goroutine-leak guard
# — the serving paths a sequential test run never stresses.
race-smoke:
	$(GO) test -race -short -count=1 -run 'TestService|TestMaterializeMemo|TestBuildProfileConcurrent|TestSearchCanceled|TestIndexDocumentsCanceled|TestQueryPartial|TestQueryCanceled|TestDiskConcurrent|TestChurn|TestBackgroundCompaction|TestCloseCompactsDueShard|TestAcknowledgedWriteIsDurable|TestFsyncsPerTouchedShard|TestSearchHugeK|TestTermTableGrowthUnderSearch' . ./internal/core/ ./internal/table/ ./internal/retriever/ ./internal/ir/ ./internal/bm25/
	@echo "race-smoke: ok"

# fuzz-smoke runs each native fuzz target (the two binary decoders, the
# search reply encoder, the batch-split invariant of the shard write
# path, BM25's bit identity with a naive scoring of its live documents
# across adds, deletes, snapshots and adopts, the SQL hash join's
# agreement with =, the embedder's bit identity with its reference,
# FuzzAsFloatAgreesWithParseFloat: AsFloat's string screen against
# strconv.ParseFloat, FuzzParseTimeMatchesNaive: ParseTime's layout
# screens against the plain ordered loop, FuzzTokensMatchRender: a
# request's token count over its parts against counting its rendered text,
# and FuzzTableMatchesRows: column-vector tables and their Head, Project,
# WithColumn, Take and Append against a row-major reference) for 10
# seconds —
# long enough to shake the mutator through the seed corpus's structural
# neighborhood on every verify, short enough to keep the gate
# interactive. Go allows
# one -fuzz pattern per invocation, so the targets run back to back.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 10s
	$(GO) test ./internal/retriever/ -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s
	$(GO) test ./internal/retriever/ -run '^$$' -fuzz '^FuzzBatchSplit$$' -fuzztime 10s
	$(GO) test ./internal/bm25/ -run '^$$' -fuzz '^FuzzSearchMatchesNaive$$' -fuzztime 10s
	$(GO) test ./internal/server/ -run '^$$' -fuzz '^FuzzSearchReply$$' -fuzztime 10s
	$(GO) test ./internal/sqlengine/ -run '^$$' -fuzz '^FuzzJoinKeys$$' -fuzztime 10s
	$(GO) test ./internal/embed/ -run '^$$' -fuzz '^FuzzEmbedMatchesReference$$' -fuzztime 10s
	$(GO) test ./internal/value/ -run '^$$' -fuzz '^FuzzAsFloatAgreesWithParseFloat$$' -fuzztime 10s
	$(GO) test ./internal/value/ -run '^$$' -fuzz '^FuzzParseTimeMatchesNaive$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzTokensMatchRender$$' -fuzztime 10s
	$(GO) test ./internal/table/ -run '^$$' -fuzz '^FuzzTableMatchesRows$$' -fuzztime 10s
	@echo "fuzz-smoke: ok"

# bench runs the repo's benchmark once: every workload BENCHMARK.json
# declares, for its run_seconds, through benchmark/run.sh (which builds the
# referee from this checkout), printing each run's result line. See
# benchmark/README.md for the metrics and for traced (--trace 1) runs.
bench:
	@seconds=$$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])'); \
	for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
		echo "$$w" >&2; out=$$(bash benchmark/run.sh --workload "$$w" --seed 1 --seconds "$$seconds" --trace 0) || exit 1; \
		echo "$$out" | tail -n 1; \
	done

# bench-aa is the A/A noise check the BENCHMARK.json bounds come from.
bench-aa:
	bash benchmark/aa.sh

# serve-smoke is the end-to-end daemon gate wired into `make verify`: it
# builds the real pneuma-server binary, boots it on an ephemeral port,
# scripts a session over the wire (index a table, query it, degraded
# source, 400 on abuse, /metrics counters), then SIGTERMs it and asserts
# the graceful drain — post-signal 503s with Retry-After, /readyz down
# while /healthz stays up, clean exit.
serve-smoke:
	$(GO) test ./cmd/pneuma-server/ -run TestServeSmoke -count=1
	@echo "serve-smoke: ok"

# docs is the documentation gate: every example must build, vet must be
# clean (via the vet prerequisite, so `make verify` doesn't run it
# twice), and every exported symbol in the core packages must carry a
# doc comment.
docs: vet
	$(GO) build ./examples/...
	$(GO) run ./cmd/pneuma-doccheck $(DOC_PKGS)
