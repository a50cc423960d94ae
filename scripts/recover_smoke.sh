#!/usr/bin/env bash
# Crash-recovery smoke test: serve with a durable store, commit state
# over TCP, SIGKILL the server mid-flight (no orderly shutdown of any
# kind), restart on the same directory, and require that
#
#   1. the recovered materialized view answers exactly as before, and
#   2. a *freshly registered* view of the same program — a cold
#      evaluation over the recovered database — answers identically,
#
# i.e. recovery restored precisely the committed prefix, and the
# recovered incremental state is bit-identical to re-deriving it from
# scratch. Pure bash + /dev/tcp, no extra dependencies.
#
# Usage: scripts/recover_smoke.sh           (builds target/release/algrec)
#        ALGREC_BIN=path scripts/recover_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME="recover smoke test"
. "$(dirname "$0")/smoke_lib.sh"

# --- Phase 1: commit state, then die without warning. ---------------
start_server --data-dir "$datadir" --sync always
drive 4 <<'EOF'
{"id": 1, "op": "load", "facts": "e(1, 2). e(2, 3). e(3, 4)."}
{"id": 2, "op": "register", "view": "paths", "semantics": "stratified", "program": "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."}
{"id": 3, "op": "assert", "fact": "e(4, 5)"}
{"id": 4, "op": "query", "view": "paths", "pred": "tc"}
EOF
if ! grep -q '"ok":true' <(tail -n 1 "$replies"); then
  echo "$SMOKE_NAME: setup queries failed:" >&2
  cat "$replies" >&2
  exit 1
fi
# Every reply above was acknowledged => committed => durable. Kill hard.
before=$(tail -n 1 "$replies" | certain_of)
kill -9 "$server"
await_exit

# --- Phase 2: restart, compare recovered vs pre-crash vs cold. ------
start_server --data-dir "$datadir" --sync always
drive 3 <<'EOF'
{"id": 5, "op": "query", "view": "paths", "pred": "tc"}
{"id": 6, "op": "register", "view": "cold", "semantics": "stratified", "program": "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."}
{"id": 7, "op": "shutdown"}
EOF
await_exit
recovered=$(head -n 1 "$replies" | certain_of)

if [[ -z "$before" || "$recovered" != "$before" ]]; then
  echo "$SMOKE_NAME: recovered answers differ from pre-crash answers" >&2
  echo "  before:    $before" >&2
  echo "  recovered: $recovered" >&2
  exit 1
fi

# --- Phase 3: the recovered view vs a cold re-evaluation. -----------
start_server --data-dir "$datadir" --sync always
drive 3 <<'EOF'
{"id": 8, "op": "query", "view": "paths", "pred": "tc"}
{"id": 9, "op": "query", "view": "cold", "pred": "tc"}
{"id": 10, "op": "shutdown"}
EOF
await_exit
warm=$(sed -n '1p' "$replies" | certain_of)
cold=$(sed -n '2p' "$replies" | certain_of)

if [[ -z "$warm" || "$warm" != "$cold" ]]; then
  echo "$SMOKE_NAME: recovered view differs from cold evaluation" >&2
  echo "  recovered: $warm" >&2
  echo "  cold:      $cold" >&2
  exit 1
fi

echo "$SMOKE_NAME: OK (state survived SIGKILL; recovered == pre-crash == cold)"
