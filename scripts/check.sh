#!/bin/sh
# check.sh — the pre-PR gate (see README "Static analysis: fold3dlint").
#
# Runs everything CI would: vet, build, race-enabled tests, fuzzing, the
# repo's own linter and end-to-end smokes of the real binaries. Any failure
# stops the script and fails the gate. Each step header is followed by the
# elapsed seconds of the step before it, so per-step costs can be quoted
# straight from the log.
set -eu

cd "$(dirname "$0")/.."

START="$(date +%s)"
STEP_T0="$START"
STEP_NAME=""

# step NAME — close the running step (print its elapsed seconds) and open
# the step NAME.
step() {
	_now="$(date +%s)"
	if [ -n "$STEP_NAME" ]; then
		echo "    [$STEP_NAME: $((_now - STEP_T0)) s]"
	fi
	STEP_NAME="$1"
	STEP_T0="$_now"
	echo "==> $1"
}

# go vet catches suspicious constructs the compiler accepts; it runs
# first because it is cheap.
step "go vet ./..."
go vet ./...

# Unformatted Go files fail the gate; testdata fixtures are exempt.
step "gofmt -l"
UNFORMATTED="$(gofmt -l . | grep -v '^testdata/' | grep -v '/testdata/' || true)"
if [ -n "$UNFORMATTED" ]; then
	echo "check.sh: gofmt needed on:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

# Every package must compile, including those without tests.
step "go build ./..."
go build ./...

# The benchmark harness is its own module, so ./... above skips it; vet and
# test it here so an API change that breaks it fails this gate, not the
# benchmark run.
step "fold3dbench module: go vet + go test"
(cd cmd/fold3dbench && go vet ./... && go test ./...)

# Every test of the module, once, under the race detector. -cpu=4 sets
# GOMAXPROCS to 4 whatever the host's core count, so the worker pool, the
# parallel chip build, the shared artifact cache, the chip memo and the
# lint fan-out interleave on more threads than a small CI host has cores.
step "go test -race -cpu=4 ./..."
go test -race -cpu=4 ./...

# These packages' tests probe goroutine interleavings directly, so one more
# pair of runs gives the race detector more schedules to catch:
#   internal/pool       worker slots, lowest-index error, cancellation;
#   internal/jobs       scheduler admission, event streams, batches, drain;
#   internal/server     NDJSON streams, graceful shutdown, the fleet suites;
#   cmd/fold3dd         the daemon's serve-and-shutdown lifecycle;
#   internal/cluster    the peer artifact tier over HTTP;
#   pkg/fold3d          the client's stream resume and consumer stop.
step "go test -race -cpu=4 -count=2 (goroutine-interleaving packages)"
go test -race -cpu=4 -count=2 ./internal/pool/ ./internal/jobs/ ./internal/server/ \
	./cmd/fold3dd/ ./internal/cluster/ ./pkg/fold3d/

# The generator and block-hash microbenchmarks run once each, so they keep
# compiling and running; their timings are quoted from longer runs.
step "go test -bench (BenchmarkGenerate, BenchmarkHashBlock; one iteration each)"
go test -run '^$' -bench '^(BenchmarkGenerate|BenchmarkHashBlock)$' -benchtime 1x ./internal/t2/ ./internal/flow/

# Every decoder that bytes from disk, a peer or a client can reach gets a
# bounded fuzzing pass beyond its seed corpus: the wire entry framing, the
# block and fold payloads and the /v1/jobs request path must fail cleanly
# on any input, never panic. -fuzzminimizetime 0 keeps each pass exploring
# for its whole budget instead of shrinking its first new input; a crasher
# is still reported and saved, just not minimized.
step "go test -fuzz (cache entry, block and fold codecs, job request; 10s each)"
go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime 10s -fuzzminimizetime 0 ./internal/pipeline/
go test -run '^$' -fuzz '^FuzzBlockCodec$' -fuzztime 10s -fuzzminimizetime 0 ./internal/flow/
go test -run '^$' -fuzz '^FuzzFoldCodec$' -fuzztime 10s -fuzzminimizetime 0 ./internal/flow/
go test -run '^$' -fuzz '^FuzzJobRequest$' -fuzztime 10s -fuzzminimizetime 0 ./internal/server/

# Fleet smoke test, the only test of the real binary's -peers wiring: boot
# two daemons as each other's peers, find a seed whose {table4} and
# {table1,table4} requests hash to different owners (the pair shares its
# table4 stage artifacts), run both through one entry node, and require
# that the second job's owner filled its cache from its peer over the
# artifact network tier (peer_hit > 0 in that node's /metrics). Both nodes
# must exit cleanly on SIGTERM.
step "fold3dd fleet smoke (two nodes, forwarding, peer cache fetch)"
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

# fold3dlint: every check of the suite over the whole module, including
# apiguard's call-ban table (lint.Config.CallBans) and the IndexedScanOnly
# rule for internal/place.
step "go run ./cmd/fold3dlint ./..."
go run ./cmd/fold3dlint ./...

# Large-netlist smoke: the flow must still complete a big build in CI time.
# One table5 run at scale 100 (~72k design cells, all five styles).
step "fold3d -exp table5 -scale 100 smoke"
go build -o "$SMOKEDIR/fold3d" ./cmd/fold3d
"$SMOKEDIR/fold3d" -exp table5 -scale 100 >/dev/null

# The real binary must drive the analytical backend end to end and run the
# head-to-head experiment (every backend x all five styles). The CLI's exit
# codes for bad flags are TestRunExitCodes in cmd/fold3d.
step "fold3d -placer analytical / -exp headtohead smoke"
"$SMOKEDIR/fold3d" -exp table4 -placer analytical >/dev/null
"$SMOKEDIR/fold3d" -exp headtohead >/dev/null

# The real binary must run the thermal study with in-loop planning and a
# temperature budget, and report the peak-temperature column.
step "fold3d -exp thermal -thermal smoke"
"$SMOKEDIR/fold3d" -exp thermal -thermal -tmax 85 | grep -q 'Tmax' || {
	echo "check.sh: thermal study printed no Tmax column" >&2
	exit 1
}

step "done"
echo "OK: all checks passed in $(($(date +%s) - START)) s"
