#!/usr/bin/env bash
# Race-stress groups for CI: each names a -run regex and the packages it
# selects from.
#
#   bash .github/scripts/race-stress.sh list   # every regex alternative must name a test
#   bash .github/scripts/race-stress.sh run    # run each group under -race -count=2
#
# "list" uses `go test -list`, so renaming or deleting a stressed test
# fails CI instead of silently dropping its stress coverage.
set -euo pipefail

mode=${1:?usage: race-stress.sh list|run}
failed=0

group() {
	local name=$1 regex=$2
	shift 2
	case $mode in
	list)
		local alt n
		for alt in ${regex//|/ }; do
			n=$(go test -list "$alt" "$@" | grep -cE '^(Test|Fuzz|Example)' || true)
			if [ "$n" -eq 0 ]; then
				echo "race stress ($name): -run alternative '$alt' names no test in $*" >&2
				failed=1
			fi
		done
		;;
	run)
		echo "== race stress ($name)"
		go test -race -count=2 -run "$regex" "$@"
		;;
	*)
		echo "race-stress.sh: unknown mode '$mode'" >&2
		exit 2
		;;
	esac
}

group "parallel fan-out + trace store" \
	'TestMapStress|TestMapContextCancel|ParallelDeterministic|TestStoreSingleflightStress|TestSharedStoreConcurrentMixedKinds|TestTrainCustomPackedMemo|TestDeriveSingleflight|TestStoreEvictionStress' \
	./internal/par/ ./internal/bpred/ ./internal/experiments/ ./internal/tracestore/
group "concurrent fast-path designs" \
	'TestConcurrentFastPathDesignsRace|TestFastPathEqualsPipeline' \
	./internal/service/ ./internal/core/
group "shared block-table cache" \
	'TestBlockTableCacheConcurrent|TestRunCustomPrefixesParallelMatches|TestDoSingleflight|TestDoPanicWaitersRecompute' \
	./internal/fsm/ ./internal/bpred/ ./internal/memo/
group "fleet kernel sharding" \
	'TestFleetConcurrent|TestFleetMatchesSimulatePacked|TestSearchWorkersInvariant|TestFleetDedup|TestFleetPastRowBound' \
	./internal/fsm/ ./internal/gasearch/
group "span kernel shared power tables + cached indexes" \
	'TestSpanTableConcurrent|TestFleetRunSpansMatchesRun|TestStoreSpanIndexTier|TestConfSegmentSpans' \
	./internal/fsm/ ./internal/tracestore/
group "disk tier corruption + concurrency" \
	'TestCorruption|TestConcurrentReadersWritersCorruption|TestStoreDiskTier|TestDesignDiskTier|TestBlockTableDiskTier|TestEviction' \
	./internal/disktier/ ./internal/tracestore/ ./internal/service/ ./internal/fsm/
group "fitness memo corruption + concurrent adaptive search" \
	'TestMemoDiskTierAndCorruption|TestMemoConcurrency|TestSweepRoundTripDiskTier|TestSearchAdaptiveMemoWarm|TestSearchDedupSharesEvaluations|TestEvaluateUnreachableVariantNoWalk|TestHTTPSearchModes|TestTier2GetPut' \
	./internal/fidelity/ ./internal/gasearch/ ./internal/service/ ./internal/memo/

exit $failed
