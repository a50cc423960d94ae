#!/usr/bin/env bash
# Scenario-engine smoke test: exercise `algrec scenario` end to end on
# the committed corpus in scenarios/.
#
#   Leg 1  list + the filter DSL: the full corpus lists, `-f` selects
#          and excludes, malformed filters fail with an offset.
#   Leg 2  full replay: every scenario runs at concurrency 1 and 4,
#          and replies must match the committed recordings modulo epoch
#          tags (`scenario run` exits non-zero on any divergence).
#   Leg 3  crash mid-trace: replay a scenario's trace prefix against a
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

# --- Leg 1: list + filter DSL. --------------------------------------
total=$("$BIN" scenario list | tail -n 1)
if [[ "$total" != *scenario* ]] || [[ "${total%% *}" -lt 4 ]]; then
  echo "$SMOKE_NAME: expected at least 4 scenarios, got: $total" >&2
  exit 1
fi
listed=$("$BIN" scenario list -f 'tag != slow')
if [[ "$listed" == *session_windows* ]]; then
  echo "$SMOKE_NAME: 'tag != slow' failed to exclude session_windows" >&2
  exit 1
fi
listed=$("$BIN" scenario list -f 'name ~ authz & semantics = valid')
if [[ "$listed" != *acl_authz* ]]; then
  echo "$SMOKE_NAME: 'name ~ authz & semantics = valid' missed acl_authz" >&2
  exit 1
fi
if err=$("$BIN" scenario list -f 'tag ~~ oops' 2>&1); then
  echo "$SMOKE_NAME: malformed filter was accepted" >&2
  exit 1
elif [[ "$err" != *"at offset"* ]]; then
  echo "$SMOKE_NAME: malformed filter error lacks an offset: $err" >&2
  exit 1
fi
echo "$SMOKE_NAME: OK (list + filter DSL)"

# --- Leg 2: full corpus replay. -------------------------------------
if ! "$BIN" scenario run --concurrency 1,4; then
  echo "$SMOKE_NAME: a leg diverged from its recording (see above)" >&2
  exit 1
fi
echo "$SMOKE_NAME: OK (full corpus replayed)"

# --- Leg 3: SIGKILL mid-trace, recovered tail == cold eval. ---------
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
