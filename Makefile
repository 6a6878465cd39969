GO ?= go

.PHONY: build test race bench benchdiff .bench-tmp/bench.txt bench-smoke chaos multinode placement precision serving report fmt vet loc

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

# bench regenerates results/bench.json: the experiment wall-clock records of
# a short cmd/report run plus the hot-path rows (ns/op, B/op, allocs/op)
# future changes diff against for regressions. The diff against the previous
# baseline is printed first (non-fatal here — regenerating is how an accepted
# change lands).
bench: .bench-tmp/bench.txt
	$(GO) run ./cmd/report -batches 10 -seeds 0 -out .bench-tmp >/dev/null
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

# chaos regenerates results/chaos.{txt,csv}: the fault-injection resilience
# sweep (backend x fault profile x replica count) with the degraded-serving
# policy active.
chaos:
	$(GO) run ./cmd/chaos -out results

# multinode regenerates results/multinode.txt and results/multinode_b4096.txt:
# the §V multi-node weak and strong sweeps (1-4 nodes x 4 GPUs, baseline vs
# PGAS with NIC-traffic columns) at the configuration's default batch size
# and at a 4096-sample global batch.
multinode:
	@mkdir -p results
	$(GO) run ./cmd/multinode > results/multinode.txt
	$(GO) run ./cmd/multinode -batchsize 4096 > results/multinode_b4096.txt

# placement regenerates results/placement.{txt,csv}: the placement-policy
# sweep (static / greedy / adaptive / adaptive+mirror x backend x Zipf) with
# per-owner load imbalance, plan swaps and migration volume.
placement:
	$(GO) run ./cmd/placement -out results

# precision regenerates results/precision.{txt,csv}: the mixed-precision
# wire-transport sweep (backend x dedup x fp32/fp16/int8) on a 2-node
# cluster, with comm-volume, NIC-traffic and measured output-error columns.
precision:
	$(GO) run ./cmd/precision -nodes 2 -gpus-per-node 2 -out results

# serving regenerates results/serving.{txt,csv}: the online-serving sweep
# (both backends x dedup off/on x no cache, an eviction-heavy 0.0001 and a
# non-evicting 0.01 hot-row cache) at 8000 rps over a 500 ms window.
serving:
	$(GO) run ./cmd/serve -rate 8000 -cache 0,0.0001,0.01 -duration 500ms -dedup -out results

report:
	$(GO) run ./cmd/report

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
