GO ?= go

.PHONY: check test race chaos fuzz bench-paper paper paper-check vet build api loc

# The full verification gate: vet + build + tests (+race, fuzz) + daemon
# and cluster smokes.
check:
	./scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/offload/ ./internal/experiments/ \
		./internal/server/ ./internal/trace/ ./internal/client/ \
		./internal/faultnet/ ./internal/regiongen/ ./internal/learn/ \
		./internal/wire/ ./internal/cluster/ ./internal/metrics/ \
		./internal/audit/
	$(GO) test -race -count=20 -run 'TestStream(BurstSharesWrites|OutOfOrder|CreditExhaustion|FullWindowNeverShed|DrainGoaway|PipelinedStress|RequestRecycling|DecideNeverWaitsForASlot|ConnIsOneGoroutine|HeldResponsesSurviveABadFrame)' ./internal/server/
	$(GO) test -race -count=20 -run 'TestStream(WriteCombining|CombinedWriteFailure|ResponsesStayIntact|IDsLeaveInOrder|SlotReuse)' ./internal/client/
	$(GO) test -race -count=20 -run 'TestCluster(FailoverIsPrompt|RouteEquivalence)|TestChaosClusterStreamKill|TestBreakerProbeAlwaysSettles' ./internal/client/
	$(GO) test -race -count=20 -run 'TestLeasedVerdictEqualsDaemon|TestLeasedCopiesAreTheCallers|TestLease(DroppedOnEpochAdvance|LapsesUnderPartition)|TestChaosLearnedFactorReachesLeasedVerdicts|TestStreamReturnsAfterDrainingUpgrade' ./internal/client/
	$(GO) test -race -count=20 -run 'TestBareStreamConnNeverGetsEpochs' ./internal/server/
	$(GO) test -race -count=20 -run 'TestStreamWriter' ./internal/wire/
	$(GO) test -race -count=20 -run 'TestCache|TestVerdictPricedBeforeInvalidation|TestOutcomeOwnsCandidates' ./internal/offload/

# Chaos regression suite: scripted fault scenarios driven through the
# fault-injection proxy against a live in-process daemon, race detector on.
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' \
		./internal/client/ ./internal/faultnet/ ./internal/cluster/

# Fuzz each parser briefly (the checked-in seed corpora always run as
# part of plain `make test`). FUZZTIME=1m make fuzz digs deeper.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME) ./internal/offload/
	$(GO) test -run '^$$' -fuzz '^FuzzDecideBody$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzDecideBodyV2$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamConn$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzLearnSnapshot$$' -fuzztime $(FUZZTIME) ./internal/learn/
	$(GO) test -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamFrame$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecoderReuse$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzGossipFrame$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzExprDiff$$' -fuzztime $(FUZZTIME) ./internal/symbolic/

# Refresh the committed exported-API snapshot after an intentional,
# reviewed surface change (scripts/check.sh gates against it).
api:
	$(GO) run ./cmd/apidump > api/exported.txt

# The size numbers ROADMAP tracks: non-test Go lines per package
# directory, the exported-surface line count, the exported Config fields of
# the packages it gates, the options the two serving commands take, and the
# internal/ + cmd/ total ROADMAP and CHANGES.md quote.
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' "$$(cat $$(ls $$d/*.go | grep -v _test.go) | wc -l)" "$$d"; \
	done
	@wc -l api/exported.txt
	@printf '%6d exported Config fields (the packages api/exported.txt gates)\n' "$$($(GO) run ./cmd/apidump -config-fields)"
	@for d in cmd/hybridseld cmd/loadgen; do \
		printf '%6d flags %s\n' "$$(cat $$(ls $$d/*.go | grep -v _test.go) | grep -c 'flag\.[A-Z][A-Za-z0-9]*(\"')" "$$d"; \
	done
	@printf '%6d total internal/ + cmd/ non-test Go\n' "$$(cat $$(ls internal/*/*.go cmd/*/*.go | grep -v _test.go) | wc -l)"

# The evaluation as a reviewed file: every table and figure offloadsim
# prints at full fidelity, minus the lines that carry wall time. paper-check
# regenerates it (under a minute) and diffs it against the committed
# transcript; `make paper` rewrites the transcript after an intended change
# of a model term or a study, to be reviewed like predictions.txt.
PAPER = internal/experiments/testdata/offloadsim_all.txt
paper_run = $(GO) run ./cmd/offloadsim -exp all | grep -v -e '^\[[a-z0-9]* completed in [^ ]*\]$$' -e '^total [0-9][^ ]*$$'
paper:
	$(paper_run) > $(PAPER)
paper-check:
	$(paper_run) | diff -u $(PAPER) -

# Regenerate every paper artifact at full fidelity.
bench-paper:
	$(GO) test -bench=. -benchmem .
