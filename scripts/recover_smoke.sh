#!/usr/bin/env bash
# Crash-recovery smoke test: serve with a durable store, commit state
# over TCP, SIGKILL the server mid-flight (no orderly shutdown of any
# kind), restart on the same directory, and require that
#
#   1. the `views` and `db` replies and both views' full `query` replies
#      equal the pre-crash ones modulo epoch tags — a stratified view
#      dropped and registered again in the log tail, and a
#      `valid`-semantics view with unknown answers — and
#   2. a *freshly registered* view of the same program — a cold
#      evaluation over the recovered database — answers identically,
#
# i.e. recovery restored precisely the committed prefix, and the
# recovered views are bit-identical to re-deriving them from scratch.
# Pure bash + /dev/tcp, no extra dependencies.
#
# Usage: scripts/recover_smoke.sh           (builds target/release/algrec)
#        ALGREC_BIN=path scripts/recover_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME="recover smoke test"
. "$(dirname "$0")/smoke_lib.sh"

TC='tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).'

# The reads whose replies must survive the crash, sent with the same
# ids before and after it.
reads() {
  cat <<'EOF'
{"id": 101, "op": "query", "view": "paths"}
{"id": 102, "op": "query", "view": "game"}
{"id": 103, "op": "views"}
{"id": 104, "op": "db"}
EOF
}

# --- Phase 1: commit state, then die without warning. ---------------
# `game` is the §3.2 win gadget: the 1 <-> 2 cycle leaves win(1) and
# win(2) unknown. The log tail drops `paths`, registers it again and
# keeps writing.
start_server --data-dir "$datadir" --sync always
{
  cat <<EOF
{"id": 1, "op": "load", "facts": "e(1, 2). e(2, 3). e(3, 4)."}
{"id": 2, "op": "register", "view": "paths", "semantics": "stratified", "program": "$TC"}
{"id": 3, "op": "assert", "fact": "e(4, 5)"}
{"id": 4, "op": "register", "view": "game", "semantics": "valid", "program": "win(X) :- m(X, Y), not win(Y)."}
{"id": 5, "op": "load", "facts": "m(1, 2). m(2, 1). m(3, 4)."}
{"id": 6, "op": "unregister", "view": "paths"}
{"id": 7, "op": "register", "view": "paths", "semantics": "stratified", "program": "$TC"}
{"id": 8, "op": "assert", "fact": "e(5, 6)"}
{"id": 9, "op": "assert", "fact": "m(4, 5)"}
{"id": 10, "op": "retract", "fact": "e(1, 2)"}
EOF
  reads
} | drive 14
if [[ $(grep -c '"ok":true' "$replies") -ne 14 ]] \
  || ! grep -q '"unknown":\["win(1)","win(2)"\]' "$replies"; then
  echo "$SMOKE_NAME: setup requests failed, or game has no unknown answers:" >&2
  cat "$replies" >&2
  exit 1
fi
# Every reply above was acknowledged => committed => durable. Kill hard.
tail -n 4 "$replies" >"$work/before"
kill -9 "$server"
await_exit

# --- Phase 2: restart, compare recovered vs pre-crash. ---------------
start_server --data-dir "$datadir" --sync always
{
  reads
  cat <<EOF
{"id": 105, "op": "register", "view": "cold", "semantics": "stratified", "program": "$TC"}
{"id": 106, "op": "shutdown"}
EOF
} | drive 6
await_exit
head -n 4 "$replies" >"$work/after"

if ! diff_modulo_epoch "$work/before" "$work/after"; then
  echo "$SMOKE_NAME: recovered replies differ from pre-crash replies (diff above)" >&2
  exit 1
fi

# --- Phase 3: the recovered view vs a cold re-evaluation. -----------
start_server --data-dir "$datadir" --sync always
drive 3 <<'EOF'
{"id": 107, "op": "query", "view": "paths", "pred": "tc"}
{"id": 108, "op": "query", "view": "cold", "pred": "tc"}
{"id": 109, "op": "shutdown"}
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
