#!/bin/sh
# check.sh — the pre-PR gate (see README "Static analysis: fold3dlint").
#
# Runs everything CI would: vet, build, race-enabled tests, and the repo's
# own linter. Any failure stops the script and fails the gate.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l"
UNFORMATTED="$(gofmt -l . | grep -v '^testdata/' | grep -v '/testdata/' || true)"
if [ -n "$UNFORMATTED" ]; then
	echo "check.sh: gofmt needed on:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

# The benchmark harness is its own module, so ./... above skips it; vet and
# test it here so an API change that breaks it fails this gate, not the
# benchmark run.
echo "==> fold3dbench module: go vet + go test"
(cd cmd/fold3dbench && go vet ./... && go test ./...)

echo "==> go test -race ./..."
go test -race ./...

# The worker pool and the parallel chip build are where a data race would
# hide; run their tests again under the race detector with extra workers
# so the scheduler gets more chances to interleave them.
echo "==> go test -race -count=2 -cpu=4 (pool + parallel flow)"
go test -race -count=2 -cpu=4 ./internal/pool/
go test -race -cpu=4 -run 'TestParallelFingerprintEquivalence|TestBuildChipCancellation|TestProgressEvents' ./internal/flow/

# The incremental timing engine must stay bit-identical to a full rebuild;
# re-run the equivalence property test under the race detector so a data
# race in the engine's cached state can't masquerade as a float diff.
echo "==> go test -race (incremental STA equivalence)"
go test -race -run 'TestIncrementalFullEquivalence' ./internal/opt/

# The PR 8 scaling pass rewrote legalization, spreading and the TSV
# planner around spatial indexes; the cross-scale property tests replay
# the pre-PR reference implementations (reference_test.go) against the
# indexed ones at scale 1000 and, without -short, scale 100, and require
# exactly equal positions. Run them under the race detector: the SoA
# mirrors are shared state, and a stale mirror would show up here as a
# position diff long before it corrupts a fingerprint.
echo "==> go test -race (cross-scale legalize/spread equivalence)"
go test -race -run 'TestLegalizeMatchesReference|TestSpreadMatchesReference' \
	./internal/place/

# PR 9 split placement behind a backend registry and added the analytical
# bistratal backend. Each backend's fingerprints must be byte-identical
# across worker counts, the default backend must keep its pre-PR cache
# identity, and cache entries must never cross backends on any tier.
# Re-run the backend suite and the analytical placer's determinism
# properties under the race detector with extra CPUs.
echo "==> go test -race -cpu=4 (placement backend equivalence + cache isolation)"
go test -race -cpu=4 \
	-run 'TestAnalyticalFingerprintEquivalence|TestBackendsProduceDistinctPlacements|TestForceCacheKeyIdentity|TestCrossBackendCacheIsolation|TestUnknownBackendFailsFast' \
	./internal/flow/
go test -race -cpu=4 -count=2 ./internal/place/analytical/

# Cache hits must be byte-identical to recomputation. The full style x seed
# matrix already ran under -race above (go test -race ./...); re-run the
# heaviest style with extra CPUs so the shared cache sees more goroutine
# interleavings, plus the disk-spill, cross-style reuse and fold-artifact
# properties, the block and fold codecs and the aliasing guarantees the
# shared held payloads rely on. The cache itself (tiers, budget, peer
# serving) runs whole.
echo "==> go test -race -cpu=4 (artifact-cache equivalence)"
go test -race -cpu=4 \
	-run 'TestCacheEquivalence/fold-F2F|TestCacheDiskEquivalence|TestCacheCrossStyleReuse|TestFoldCache|TestCacheAliasing|Codec' \
	./internal/flow/
go test -race -cpu=4 ./internal/pipeline/

# Every decoder that bytes from disk or a peer can reach gets a bounded
# fuzzing pass beyond its seed corpus: the wire entry framing and the block
# and fold payloads must fail cleanly on any input, never panic.
echo "==> go test -fuzz (cache entry, block and fold codecs, 10s each)"
go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime 10s ./internal/pipeline/
go test -run '^$' -fuzz '^FuzzBlockCodec$' -fuzztime 10s ./internal/flow/
go test -run '^$' -fuzz '^FuzzFoldCodec$' -fuzztime 10s ./internal/flow/

# The fold3dd server is the one sanctioned home of long-lived goroutines
# (scheduler workers, accept loop); re-run its suites under the race
# detector with extra CPUs so admission, event streams and shutdown drain
# interleave more aggressively. The fleet suites (consistent-hash routing,
# forwarded jobs, the peer artifact tier) and the public client live here
# too.
echo "==> go test -race -cpu=4 (fold3dd job queue + HTTP server + daemon + fleet + client)"
go test -race -cpu=4 -count=2 ./internal/jobs/ ./internal/server/ ./cmd/fold3dd/ ./internal/cluster/ ./pkg/fold3d/

# Fleet smoke test: boot two daemons as each other's peers, find a seed
# whose {table4} and {table1,table4} requests hash to different owners
# (the pair shares its table4 stage artifacts), run both through one entry
# node, and require that the second job's owner filled its cache from its
# peer over the artifact network tier (peer_hit > 0 in that node's
# /metrics). Both nodes must exit cleanly on SIGTERM.
echo "==> fold3dd fleet smoke (two nodes, forwarding, peer cache fetch)"
SMOKEDIR="$(mktemp -d)"
APID=""
BPID=""
cleanup_smoke() {
	[ -n "$APID" ] && kill "$APID" 2>/dev/null
	[ -n "$BPID" ] && kill "$BPID" 2>/dev/null
	rm -rf "$SMOKEDIR"
}
trap cleanup_smoke EXIT
go build -o "$SMOKEDIR/fold3dd" ./cmd/fold3dd
PORTA=42801
PORTB=42802
PEERS="a=http://127.0.0.1:$PORTA,b=http://127.0.0.1:$PORTB"
"$SMOKEDIR/fold3dd" -addr "127.0.0.1:$PORTA" -node-id a -peers "$PEERS" -peer-token smoke 2>"$SMOKEDIR/a.log" &
APID=$!
"$SMOKEDIR/fold3dd" -addr "127.0.0.1:$PORTB" -node-id b -peers "$PEERS" -peer-token smoke 2>"$SMOKEDIR/b.log" &
BPID=$!
for NODE in a b; do
	i=0
	while [ "$i" -lt 100 ]; do
		grep -q '^fold3dd: serving on ' "$SMOKEDIR/$NODE.log" && break
		i=$((i + 1))
		sleep 0.1
	done
	grep -q '^fold3dd: serving on ' "$SMOKEDIR/$NODE.log" || {
		echo "check.sh: fleet node $NODE never bound its port:" >&2
		cat "$SMOKEDIR/$NODE.log" >&2
		exit 1
	}
done
A="http://127.0.0.1:$PORTA"
B="http://127.0.0.1:$PORTB"

# wait_done <base-url> <job-id> — poll until the job is terminal, require done.
wait_done() {
	_state=""
	_i=0
	while [ "$_i" -lt 300 ]; do
		_state="$(curl -sf "$1/v1/jobs/$2" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
		case "$_state" in done | failed | canceled) break ;; esac
		_i=$((_i + 1))
		sleep 0.1
	done
	[ "$_state" = done ] || { echo "check.sh: fleet job $2 ended in state '$_state'" >&2; exit 1; }
}

CROSS=""
SEED=1
while [ "$SEED" -le 32 ]; do
	ID1="$(curl -sf -X POST "$A/v1/jobs" -d "{\"experiments\":[\"table4\"],\"seed\":$SEED}" |
		sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
	[ -n "$ID1" ] || { echo "check.sh: fleet submit (seed $SEED) rejected" >&2; exit 1; }
	wait_done "$A" "$ID1"
	ID2="$(curl -sf -X POST "$A/v1/jobs" -d "{\"experiments\":[\"table1\",\"table4\"],\"seed\":$SEED}" |
		sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
	[ -n "$ID2" ] || { echo "check.sh: fleet submit (pair, seed $SEED) rejected" >&2; exit 1; }
	wait_done "$A" "$ID2"
	# Job IDs are owner-prefixed (a-job-000001): the prefix says which node
	# the consistent hash routed each request to.
	OWNER1="${ID1%%-*}"
	OWNER2="${ID2%%-*}"
	if [ "$OWNER1" != "$OWNER2" ]; then
		CROSS="$OWNER2"
		break
	fi
	SEED=$((SEED + 1))
done
[ -n "$CROSS" ] || { echo "check.sh: no seed in [1,32] split ownership across the two nodes" >&2; exit 1; }
CROSSURL="$A"
[ "$CROSS" = b ] && CROSSURL="$B"
PEERHITS="$(curl -sf "$CROSSURL/metrics" | sed -n 's/^fold3dd_cache_lookups_total{outcome="peer_hit"} //p')"
[ -n "$PEERHITS" ] && [ "$PEERHITS" -gt 0 ] || {
	echo "check.sh: fleet node $CROSS reported no peer cache hits (got '${PEERHITS:-missing}')" >&2
	exit 1
}
kill "$APID" "$BPID"
for PID in "$APID" "$BPID"; do
	if ! wait "$PID"; then
		echo "check.sh: a fleet node did not exit cleanly on SIGTERM" >&2
		exit 1
	fi
done
APID=""
BPID=""

# PR 10: the multigrid thermal engine is pooled and re-entered by every
# flow worker, and thermal-enabled chip builds must stay byte-identical
# across worker counts. Re-run the solver suite and the flow's thermal
# contract tests under the race detector with extra CPUs.
echo "==> go test -race -cpu=4 (thermal solver + in-loop thermal planning)"
go test -race -cpu=4 -count=2 ./internal/thermal/
go test -race -cpu=4 \
	-run 'TestThermalConfigValidate|TestThermalViasInserted|TestThermalOffFingerprintIdentity|TestThermalFingerprintEquivalence|TestThermalStageOnlyOnFoldedF2B' \
	./internal/flow/

# The linter itself now runs its checks through the worker pool; re-run
# its suite under the race detector with extra CPUs so a data race in the
# parallel load or check fan-out cannot hide behind deterministic output.
echo "==> go test -race -cpu=4 (lint engine: parallel load + checks)"
go test -race -cpu=4 ./internal/lint/...

# fold3dlint includes apiguard's call-ban table (lint.Config.CallBans):
# internal/opt times through its persistent sta.Engine, and internal/flow
# runs stages only through the pipeline executor and builds placers only
# through the backend registry. Its IndexedScanOnly rule bans nested
# linear Cells scans in internal/place (legalization and blockage queries
# must use the spatial indexes).
echo "==> go run ./cmd/fold3dlint ./..."
go run ./cmd/fold3dlint ./...

# Large-netlist smoke: the scaling pass is only honest if the flow still
# completes a big build in CI time. One table5 run at scale 100 (~72k
# design cells, all five styles) — ~5s after PR 8, ~8.5s before it.
echo "==> fold3d -exp table5 -scale 100 smoke"
go build -o "$SMOKEDIR/fold3d" ./cmd/fold3d
"$SMOKEDIR/fold3d" -exp table5 -scale 100 >/dev/null

# Placement-backend smoke: the CLI must drive the analytical backend end
# to end, run the head-to-head experiment (every backend x all five
# styles), and fail fast with exit 2 on an unknown backend name.
echo "==> fold3d -placer analytical / -exp headtohead / unknown-placer smoke"
"$SMOKEDIR/fold3d" -exp table4 -placer analytical >/dev/null
"$SMOKEDIR/fold3d" -exp headtohead >/dev/null
RC=0
"$SMOKEDIR/fold3d" -exp table4 -placer simulated-annealing >/dev/null 2>&1 || RC=$?
[ "$RC" = 2 ] || { echo "check.sh: unknown placer exited $RC, want 2" >&2; exit 1; }

# Thermal smoke: the CLI must run the thermal study with in-loop planning
# and a temperature budget, reject thermal knobs without -thermal, and
# reject an impossible budget — both with exit 2 before any work starts.
echo "==> fold3d -exp thermal -thermal smoke"
"$SMOKEDIR/fold3d" -exp thermal -thermal -tmax 85 | grep -q 'Tmax' || {
	echo "check.sh: thermal study printed no Tmax column" >&2
	exit 1
}
RC=0
"$SMOKEDIR/fold3d" -exp thermal -tmax 85 >/dev/null 2>&1 || RC=$?
[ "$RC" = 2 ] || { echo "check.sh: -tmax without -thermal exited $RC, want 2" >&2; exit 1; }
RC=0
"$SMOKEDIR/fold3d" -exp thermal -thermal -tmax 20 >/dev/null 2>&1 || RC=$?
[ "$RC" = 2 ] || { echo "check.sh: impossible -tmax exited $RC, want 2" >&2; exit 1; }

echo "OK: all checks passed"
