GO ?= go

.PHONY: build test race bench benchdiff .bench-tmp/bench.txt bench-smoke report artifacts fmt vet loc nofma

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The hot-path rows of results/bench.json are the packages' own Go
# benchmarks: `cmd/benchdiff` names BenchmarkX/sub in internal/<pkg> the row
# <pkg>/X/sub and keeps the median ns/op and the largest allocs/op over the
# three runs below. Run one row alone with
# go test -run '^$' -bench '^BenchmarkX$' ./internal/<pkg>.
.bench-tmp/bench.txt:
	@mkdir -p .bench-tmp
	$(GO) test -run '^$$' -bench . -benchmem -count 3 -benchtime 250ms ./internal/... > $@ || { cat $@; exit 1; }

# bench regenerates results/bench.json: the per-entry wall-clock records of
# a short cmd/report run of the paper's manifest entries (scaling,
# commvolume, ablations, pipeline-depth) plus the hot-path rows (ns/op,
# B/op, allocs/op) future changes diff against for regressions. The diff against the previous
# baseline is printed first (non-fatal here — regenerating is how an accepted
# change lands).
bench: .bench-tmp/bench.txt
	$(GO) run ./cmd/report -only scaling,commvolume,ablations,pipeline-depth -batches 10 -out .bench-tmp >/dev/null
	-$(GO) run ./cmd/benchdiff -old results/bench.json -new .bench-tmp/bench.txt
	$(GO) run ./cmd/benchdiff -new .bench-tmp/bench.txt -write .bench-tmp/bench.json
	@mkdir -p results
	@cp .bench-tmp/bench.json results/bench.json && rm -rf .bench-tmp
	@echo "wrote results/bench.json"

# benchdiff runs the Go benchmarks fresh and FAILS on regressions against the
# hot-path rows of the committed results/bench.json — the CI gate. Override
# the ns/op tolerance (percent) with TOLERANCE; allocs/op regressions always
# fail.
TOLERANCE ?= 15
benchdiff: .bench-tmp/bench.txt
	$(GO) run ./cmd/benchdiff -old results/bench.json -new .bench-tmp/bench.txt -tolerance $(TOLERANCE)
	@rm -rf .bench-tmp

# bench-smoke compiles and runs every Go benchmark once — the CI guard that
# keeps the bench harness from bit-rotting.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime=1x ./...

# report regenerates results/ from the artifact manifest
# (internal/experiments/manifest.go): every entry, or the entries named by
# ONLY (make report ONLY=placement,chaos). It writes to a temp dir and copies
# everything but bench.json: the committed bench.json also holds the hot-path
# rows only `make bench` writes, which a report-only file would drop.
ONLY ?=
report:
	@rm -rf .report-tmp
	$(GO) run ./cmd/report -out .report-tmp $(if $(ONLY),-only $(ONLY))
	@mkdir -p results
	@for f in .report-tmp/*; do [ "$$(basename "$$f")" = bench.json ] || cp "$$f" results/; done
	@rm -rf .report-tmp

# artifacts regenerates every committed artifact in one cmd/report run and
# fails if any file under results/ changed: they must regenerate byte for
# byte from the source. bench.json holds host wall-clock, and report never
# writes it.
artifacts: report
	git diff --exit-code -- results/

fmt:
	gofmt -s -l -w .

vet:
	$(GO) vet ./...

# loc prints the non-test Go lines of every package outside benchmark/ (a
# nested module with its own go.mod), then their total: the net-lines figure
# simplicity changes report before and after.
loc:
	@find . \( -path ./benchmark -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print \
		| xargs wc -l | grep -v ' total$$' \
		| awk '{ d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' \
		| sort -k2

# nofma fails if the compiler fuses any multiply-add in the module. Go may
# fuse x*y + z into one instruction on arm64 and ppc64le (never on amd64 or
# 386), which moves the last bit of a simulated time; every product that
# could fuse is rounded by an explicit conversion, float64(x*y). The check
# cross-compiles the module for both with the assembly listing on and greps
# it for the fused instructions (FMADDD, FNMSUBD, FMADDS, ... on arm64;
# FMADD, FMSUB, ... on ppc64le).
nofma:
	@for arch in arm64 ppc64le; do \
		asm=$$(mktemp); \
		GOARCH=$$arch $(GO) build -a -gcflags='pgasemb/...=-S' ./... 2> $$asm || { cat $$asm; rm -f $$asm; exit 1; }; \
		if grep -E '\sF(N)?M(ADD|SUB)[DS]?\s' $$asm; then \
			echo "fused multiply-add on $$arch: round the product with an explicit conversion"; rm -f $$asm; exit 1; \
		fi; \
		rm -f $$asm; echo "$$arch: no fused multiply-add"; \
	done
