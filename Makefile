# Convenience targets for the bftfast reproduction.

GO ?= go

.PHONY: all build lint docs-check test test-race test-adversary fuzz-smoke telemetry-smoke bench bench-host bench-e2e breakdown figures fs-figures examples clean

all: build lint docs-check test

build:
	$(GO) build ./...

# Lint gate: go vet, the repository's own determinism- and protocol-contract
# analyzers (cmd/bft-vet, see internal/analysis and DESIGN.md), and
# staticcheck when installed. Runs clean over the whole module; violations
# are either fixed or annotated //bftvet:allow <reason> (optionally scoped:
# //bftvet:allow:name) at the offending line. The -selftest run first proves
# every analyzer still fires on its seeded-violation corpus, so a pass
# cannot silently go blind.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/bft-vet -selftest
	$(GO) run ./cmd/bft-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Docs anchor lint: every PROTOCOL.md#... or DESIGN.md#... link in the
# tracked docs must resolve to a real heading in the target file. Slugs are
# GitHub-style: lowercase, punctuation stripped, spaces become hyphens.
docs-check:
	@status=0; \
	for src in README.md PROTOCOL.md DESIGN.md EXPERIMENTS.md ROADMAP.md; do \
		[ -f $$src ] || continue; \
		for link in $$(grep -oE '\((PROTOCOL|DESIGN|README|EXPERIMENTS)\.md#[a-z0-9-]+\)' $$src | tr -d '()' | sort -u); do \
			doc=$${link%%#*}; anchor=$${link#*#}; \
			if ! sed -n 's/^#\{1,6\} //p' $$doc \
				| tr '[:upper:]' '[:lower:]' \
				| sed 's/[^a-z0-9 -]//g; s/ /-/g' \
				| grep -qx "$$anchor"; then \
				echo "docs-check: $$src links $$doc#$$anchor but $$doc has no such heading"; \
				status=1; \
			fi; \
		done; \
	done; \
	if [ $$status -eq 0 ]; then echo "docs-check: all doc anchors resolve"; fi; \
	exit $$status

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Byzantine adversary campaign under the race detector: per-behavior safety
# runs plus the full liveness sweep. BFT_CAMPAIGN_OUT makes the sweep write
# campaign_summary.txt and campaign.json (per-phase breakdowns) for CI
# artifact upload; BFT_CHAOS_SEED replays a reported failure seed.
test-adversary:
	BFT_CAMPAIGN_OUT=$(CURDIR) $(GO) test -race -count=1 -v -run 'TestSafetyRunPerBehavior|TestCampaign' ./internal/adversary/...
	$(GO) test -race -count=1 -run 'Equivocating|CorruptTransfer|WrapReplica' ./internal/core ./internal/bench

# Short deterministic fuzz pass over every message-decode fuzz target,
# seeded from the adversary garbage corpus (internal/adversary). The list
# is whatever `go test -list` finds, so a renamed or added target cannot
# drop out; an empty list fails. CI runs this as a smoke; raise FUZZTIME
# locally for a real session.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; targets=$$($(GO) test -list '^Fuzz' ./internal/message | grep '^Fuzz'); \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found in ./internal/message"; exit 1; }; \
	for f in $$targets; do \
		echo "--- fuzz $$f ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) ./internal/message; \
	done

# End-to-end smoke of the host telemetry plane (DESIGN.md §11): boots a
# real 4-replica UDP group with -telemetry and -flight, drives operations
# through bft-kv, asserts on the /metrics scrape (series count, committed
# ops, zero drops), renders a bft-top frame, dumps the flight ring via
# SIGQUIT and decodes it with bft-trace, then checks clean SIGTERM
# shutdown. Artifacts land in TELEMETRY_OUT for CI upload.
TELEMETRY_OUT ?= $(CURDIR)/telemetry-artifacts
telemetry-smoke:
	sh tools/telemetry-smoke.sh $(TELEMETRY_OUT)

# Every paper figure at reduced resolution (a few minutes).
bench:
	$(GO) test -bench=. -benchmem -run nope .

# Host-performance microbenchmarks (internal/hostbench): wall-clock cost of
# the codec, MAC, and event-kernel hot paths, written to BENCH_host.json.
# Compare two reports with: go run ./cmd/bench-host -compare OLD NEW
bench-host:
	$(GO) run ./cmd/bench-host -out BENCH_host.json

# End-to-end benchmark smoke (benchmarks/README.md): three seconds each of
# the rtt-udp and kv-mixed-udp workloads on a real 4-replica UDP group. The
# exit status is the correctness check (every reply right, no operation
# failed, replicas agree); the numbers of a window this short are not for
# comparing. kv-mixed-udp hands kvservice to bft.StartReplica directly, so
# it is the run that takes the service's own copy-on-write checkpoints
# (core.Checkpointer) over real transport; its check includes
# read-your-write and equal StateDigest at equal last_executed.
#
# The last two steps are gates, not smokes, each read from the last line
# run.sh prints. A traced rtt-udp run must send fewer than 4 standalone
# commit datagrams per operation (12 without piggybacked commits, under 2
# with the flush policy of DESIGN.md §14); a count, so host speed does not
# move it. A traced 10 s failover-udp run must report
# client.post_fault_p90_us under 50 ms once the primary is gone: about 2 ms
# when the client stops designating the dead replica (DESIGN.md §15),
# hundreds of ms when every fourth request waits out the 150 ms
# retransmission timer. The window is 10 s, not 3, because the outage leaves
# a backlog that takes about 0.4 s to drain. In a 3 s run that is a quarter
# of the post-fault window, so its p90 would read the drain, not the fault.
bench-e2e:
	bash benchmarks/run.sh --workload rtt-udp --seed 1 --seconds 3 --trace 0
	bash benchmarks/run.sh --workload kv-mixed-udp --seed 1 --seconds 3 --trace 0
	@commits=$$(bash benchmarks/run.sh --workload rtt-udp --seed 1 --seconds 3 --trace 1 | tail -n 1 \
		| sed -n 's/.*"transport\.msgs_per_op\.commit":{"value":\([0-9.e+-]*\).*/\1/p'); \
	echo "bench-e2e: transport.msgs_per_op.commit = $$commits (want < 4)"; \
	awk -v c="$$commits" 'BEGIN { exit !(c != "" && c + 0 < 4) }'
	@p90=$$(bash benchmarks/run.sh --workload failover-udp --seed 1 --seconds 10 --trace 1 | tail -n 1 \
		| sed -n 's/.*"client\.post_fault_p90_us":{"value":\([0-9.e+-]*\).*/\1/p'); \
	echo "bench-e2e: client.post_fault_p90_us = $$p90 (want < 50000)"; \
	awk -v p="$$p90" 'BEGIN { exit !(p != "" && p + 0 < 50000) }'

# Traced per-phase latency breakdown of the 0/0 benchmark, BFT vs
# tentative-execution-off, written to breakdown.json (reduced windows).
breakdown:
	$(GO) run ./cmd/bft-trace -compare -scale 0.1 -json -out breakdown.json
	$(GO) run ./cmd/bft-trace -compare -scale 0.1

# Full-resolution micro-benchmark figures (Figures 2-7 + §4.4; ~6 min).
figures:
	$(GO) run ./cmd/bft-bench -figure all

# Full-resolution file-system figures (Figures 8-9; under a minute).
fs-figures:
	$(GO) run ./cmd/bfs-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/filesystem
	$(GO) run ./examples/viewchange

clean:
	$(GO) clean -testcache
