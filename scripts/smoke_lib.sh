# Shared helpers for scripts/*_smoke.sh. Source from a smoke script
# after setting SMOKE_NAME (used in error messages):
#
#   SMOKE_NAME="serve smoke test"
#   . "$(dirname "$0")/smoke_lib.sh"
#
# Sourcing resolves ALGREC_BIN (default target/release/algrec, built on
# demand), creates a scratch directory with $log/$replies/$datadir
# inside, and installs a fail-fast EXIT trap that SIGKILLs whatever
# server is running and removes the scratch directory — no orphaned
# servers, whichever line fails. Pure bash + /dev/tcp; no external
# dependencies beyond coreutils/sed/awk.
#
# Helpers:
#   start_server [args…]  start `$BIN serve args…`, await the address
#                         banner, export $server/$host/$port
#   start_node NAME cmd…  start `$BIN cmd…` (any serving verb, e.g.
#                         `cluster serve`), log to $work/NAME.log, await
#                         the banner, export $node/$host/$port and
#                         register the pid for cleanup
#   await_exit            poll until $server is gone (it is disowned)
#   drive N               send stdin over one TCP connection, collect N
#                         reply lines into $replies
#   strip_epoch           filter: drop the `"epoch":N,` field
#   diff_modulo_epoch A B diff two reply transcripts modulo epoch tags —
#                         the same equality the scenario replay applies
#   certain_of            filter: extract the `"certain":[…]` payload
#   jesc FILE             print FILE as a JSON string body (quotes and
#                         backslashes escaped, newlines as \n) — for
#                         splicing corpus files into protocol requests

BIN="${ALGREC_BIN:-target/release/algrec}"
if [[ ! -x "$BIN" ]]; then
  cargo build --release
fi

work=$(mktemp -d)
log="$work/server.log"
replies="$work/replies"
datadir="$work/data"
mkdir -p "$datadir"
server=""
nodes=()

smoke_cleanup() {
  kill -9 "$server" 2>/dev/null || true
  for pid in ${nodes[@]+"${nodes[@]}"}; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$work"
}
trap 'smoke_cleanup' EXIT

# Start the server (extra args pass through), wait for its address
# banner, export host/port. Port 0 picks an ephemeral port, so parallel
# CI legs never collide. The server is disowned: lifecycle is managed
# explicitly (await_exit / the EXIT trap), not by job control.
start_server() {
  : >"$log"
  "$BIN" serve "$@" >"$log" 2>/dev/null &
  server=$!
  disown "$server" 2>/dev/null || true
  for _ in $(seq 100); do
    grep -q '^% listening on ' "$log" && break
    sleep 0.1
  done
  addr=$(sed -n 's/^% listening on //p' "$log" | head -n 1)
  if [[ -z "$addr" ]]; then
    echo "$SMOKE_NAME: server never announced an address" >&2
    exit 1
  fi
  host=${addr%:*}
  port=${addr##*:}
}

# Start any serving verb of the binary (`start_node primary cluster
# serve --data-dir DIR …`) as its own disowned process, logging to
# $work/NAME.log. Awaits the `% … listening on` banner (every server
# role prints one) and exports $node/$host/$port. The pid is registered
# with the EXIT trap, so a failing script never orphans a fleet.
start_node() {
  local name=$1
  shift
  local nlog="$work/$name.log"
  : >"$nlog"
  "$BIN" "$@" >"$nlog" 2>"$work/$name.err" &
  node=$!
  nodes+=("$node")
  disown "$node" 2>/dev/null || true
  for _ in $(seq 100); do
    grep -q 'listening on ' "$nlog" && break
    sleep 0.1
  done
  addr=$(sed -n 's/^% .*listening on //p' "$nlog" | head -n 1)
  if [[ -z "$addr" ]]; then
    echo "$SMOKE_NAME: node $name never announced an address" >&2
    cat "$work/$name.err" >&2 || true
    exit 1
  fi
  host=${addr%:*}
  port=${addr##*:}
}

# Wait (poll: the server is disowned) until the server process is gone.
await_exit() {
  for _ in $(seq 200); do
    kill -0 "$server" 2>/dev/null || return 0
    sleep 0.05
  done
  echo "$SMOKE_NAME: server did not exit" >&2
  exit 1
}

# Send stdin to the server, one reply line per request line.
drive() {
  local n=$1
  exec 3<>"/dev/tcp/$host/$port"
  cat >&3
  head -n "$n" <&3 >"$replies"
  exec 3>&- 3<&-
}

# Epochs are per-process (a restarted server starts over at epoch 0), so
# comparisons across restarts strip them — the same contract the
# scenario engine's replay diff applies.
strip_epoch() { sed 's/"epoch":[0-9]*,//'; }

# Diff two reply transcripts modulo per-process epoch tags — the same
# equality contract the scenario engine's replay diff and the cluster's
# replica-consistency checks apply. Non-zero (with a unified diff on
# stdout) on any other divergence.
diff_modulo_epoch() {
  diff -u <(strip_epoch <"$1") <(strip_epoch <"$2")
}

certain_of() { sed -n 's/.*"certain":\(\[[^]]*\]\).*/\1/p'; }

# JSON-escape a file's contents into a single-line string body.
jesc() {
  sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$1" | awk 'NR > 1 { printf "\\n" } { printf "%s", $0 }'
}
