#!/usr/bin/env bash
# Scenario-engine smoke test: exercise `algrec scenario` end to end on
# the committed corpus in scenarios/.
#
#   Leg 1  list: `-f NAME` lists exactly that scenario, and an unknown
#          name fails.
#   Leg 2  full replay: every scenario runs at concurrency 1 and 4,
#          and replies must match the committed recordings modulo epoch
#          tags (`scenario run` exits non-zero on any divergence).
#   Leg 3  fixed point: re-recording a copy of the corpus must leave
#          every committed file byte-identical, epoch tags included.
#   Leg 4  crash mid-trace: replay a scenario's trace prefix against a
#          durable `algrec serve`, SIGKILL the server between two trace
#          lines, restart on the same --data-dir, replay the tail, and
#          require the maintained view to answer exactly like a freshly
#          registered cold view of the same program — the recovered
#          replayed tail converges to the cold-eval model.
#
# Usage: scripts/scenario_smoke.sh
#        ALGREC_BIN=path scripts/scenario_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME="scenario smoke test"
. "$(dirname "$0")/smoke_lib.sh"

# --- Leg 1: list by name. ------------------------------------------
listed=$("$BIN" scenario list -f acl_authz)
if [[ $(grep -c . <<<"$listed") -ne 2 ]] || [[ "$listed" != acl_authz* ]] \
  || [[ "$listed" != *"1 scenario(s)" ]]; then
  echo "$SMOKE_NAME: '-f acl_authz' should list exactly acl_authz, got: $listed" >&2
  exit 1
fi
if err=$("$BIN" scenario list -f nosuch 2>&1); then
  echo "$SMOKE_NAME: an unknown scenario name was accepted" >&2
  exit 1
elif [[ "$err" != *nosuch* ]]; then
  echo "$SMOKE_NAME: unknown-name error does not name the name: $err" >&2
  exit 1
fi
echo "$SMOKE_NAME: OK (list by name)"

# --- Leg 2: full corpus replay. -------------------------------------
if ! "$BIN" scenario run --concurrency 1,4; then
  echo "$SMOKE_NAME: a leg diverged from its recording (see above)" >&2
  exit 1
fi
echo "$SMOKE_NAME: OK (full corpus replayed)"

# --- Leg 3: the recordings are a fixed point of `record`. -----------
# Leg 2 compares modulo epoch tags, so a hand-edited or stale recording
# can pass it; a fresh recording of the same corpus cannot differ.
cp -r scenarios "$work/corpus"
"$BIN" scenario record --corpus "$work/corpus" >/dev/null
if ! diff -r scenarios "$work/corpus"; then
  echo "$SMOKE_NAME: re-recording changed the committed corpus (diff above)" >&2
  exit 1
fi
echo "$SMOKE_NAME: OK (recordings are a fixed point of record)"

# --- Leg 4: SIGKILL mid-trace, recovered tail == cold eval. ---------
# Drive social_reachability's own corpus files over the wire: setup
# requests are assembled from edb.dl and program.dl with jesc, then the
# trace replays around a hard kill after line 8 (a committed assert).
sdir=scenarios/social_reachability
cut=8
start_server --data-dir "$datadir" --sync always
{
  printf '{"id": "setup-load", "op": "load", "facts": "%s"}\n' "$(jesc "$sdir/edb.dl")"
  printf '{"id": "setup-reg", "op": "register", "view": "reach", "semantics": "stratified", "program": "%s"}\n' \
    "$(jesc "$sdir/program.dl")"
  head -n "$cut" "$sdir/trace.ndjson"
} | drive $((cut + 2))
if grep -q '"ok":false' "$replies"; then
  echo "$SMOKE_NAME: trace prefix failed before the crash:" >&2
  cat "$replies" >&2
  exit 1
fi
kill -9 "$server"
await_exit

start_server --data-dir "$datadir" --sync always
tail_n=$(($(grep -c . "$sdir/trace.ndjson") - cut))
{
  tail -n "$tail_n" "$sdir/trace.ndjson"
  printf '{"id": "cold-reg", "op": "register", "view": "cold", "semantics": "stratified", "program": "%s"}\n' \
    "$(jesc "$sdir/program.dl")"
  printf '{"id": "warm-q", "op": "query", "view": "reach", "pred": "reach"}\n'
  printf '{"id": "cold-q", "op": "query", "view": "cold", "pred": "reach"}\n'
  printf '{"id": "bye", "op": "shutdown"}\n'
} | drive $((tail_n + 4))
await_exit
warm=$(sed -n "$((tail_n + 2))p" "$replies" | certain_of)
cold=$(sed -n "$((tail_n + 3))p" "$replies" | certain_of)
if [[ -z "$warm" || "$warm" != "$cold" ]]; then
  echo "$SMOKE_NAME: recovered replayed tail diverged from cold eval" >&2
  echo "  recovered: $warm" >&2
  echo "  cold:      $cold" >&2
  exit 1
fi
echo "$SMOKE_NAME: OK (SIGKILL mid-trace; replayed tail == cold eval)"
