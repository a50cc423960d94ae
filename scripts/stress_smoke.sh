#!/usr/bin/env bash
# Concurrency smoke test: writer clients race disjoint fact streams into
# a *durable* server over parallel TCP connections while reader clients
# hammer the materialized view; then the final view must answer exactly
# like (1) a freshly registered cold re-evaluation of the same program on
# the final database and (2) the view recovered after restarting the
# server on the same data directory. Pure bash + /dev/tcp, no extra
# dependencies — the deep per-epoch consistency check lives in the Rust
# stress test (tests/concurrent_serve.rs); this leg exercises the real
# binary end to end.
#
# Phase 4 promotes this to a multi-process *fleet* smoke: a durable
# primary snapshotting every 3 records, two WAL-shipping replicas, and
# the position-pinning router (`algrec cluster serve|join|route`), with
# a replica SIGKILLed mid-traffic and a replacement, joining after
# generation 0 was compacted, bootstrapping from a snapshot and
# converging to the primary's answers modulo epoch tags.
#
# Usage: scripts/stress_smoke.sh            (builds target/release/algrec)
#        ALGREC_BIN=path scripts/stress_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME="stress smoke test"
. "$(dirname "$0")/smoke_lib.sh"

WRITERS=3
FACTS_PER_WRITER=8
READERS=2
READS_PER_READER=12
PROGRAM='tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).'

# One writer client: its own connection, a private arithmetic chain of
# facts, one reply awaited per assert (so every recorded reply is a
# commit acknowledgement).
writer() {
  local w=$1 out=$2 k a b
  exec 4<>"/dev/tcp/$host/$port"
  for k in $(seq 0 $((FACTS_PER_WRITER - 1))); do
    a=$(((w + 1) * 1000 + 2 * k))
    b=$((a + 1))
    printf '{"id": %d, "op": "assert", "fact": "e(%d, %d)"}\n' "$k" "$a" "$b" >&4
    IFS= read -r reply <&4
    printf '%s\n' "$reply" >>"$out"
  done
  exec 4>&- 4<&-
}

# One reader client: repeated queries racing the writers; every reply
# must be well-formed and ok (epoch-level consistency is the Rust stress
# test's job).
reader() {
  local out=$1 k
  exec 5<>"/dev/tcp/$host/$port"
  for k in $(seq 1 "$READS_PER_READER"); do
    printf '{"id": %d, "op": "query", "view": "paths", "pred": "tc"}\n' "$k" >&5
    IFS= read -r reply <&5
    printf '%s\n' "$reply" >>"$out"
  done
  exec 5>&- 5<&-
}

# --- Phase 1: setup, then race writers against readers. -------------
start_server --data-dir "$datadir" --sync always --threads 2
drive 2 <<EOF
{"id": 1, "op": "load", "facts": "e(1, 2). e(2, 3)."}
{"id": 2, "op": "register", "view": "paths", "semantics": "stratified", "program": "$PROGRAM"}
EOF
if [[ $(grep -c '"ok":true' "$replies") -ne 2 ]]; then
  echo "$SMOKE_NAME: setup failed:" >&2
  cat "$replies" >&2
  exit 1
fi

pids=()
outs=()
for w in $(seq 0 $((WRITERS - 1))); do
  out="$work/writer_$w"
  outs+=("$out")
  writer "$w" "$out" &
  pids+=($!)
done
for r in $(seq 1 "$READERS"); do
  out="$work/reader_$r"
  outs+=("$out")
  reader "$out" &
  pids+=($!)
done
for p in "${pids[@]}"; do
  wait "$p"
done

total=$((WRITERS * FACTS_PER_WRITER + READERS * READS_PER_READER))
ok=$(cat "${outs[@]}" | grep -c '"ok":true')
if [[ "$ok" -ne "$total" ]]; then
  echo "$SMOKE_NAME: expected $total ok replies, got $ok:" >&2
  grep -hv '"ok":true' "${outs[@]}" >&2 || true
  exit 1
fi

# --- Phase 2: final view vs a cold re-evaluation. -------------------
drive 3 <<EOF
{"id": 90, "op": "query", "view": "paths", "pred": "tc"}
{"id": 91, "op": "register", "view": "cold", "semantics": "stratified", "program": "$PROGRAM"}
{"id": 92, "op": "query", "view": "cold", "pred": "tc"}
EOF
final=$(sed -n '1p' "$replies" | certain_of)
cold=$(sed -n '3p' "$replies" | certain_of)
if [[ -z "$final" || "$final" != "$cold" ]]; then
  echo "$SMOKE_NAME: raced view differs from cold re-evaluation" >&2
  echo "  raced: $final" >&2
  echo "  cold:  $cold" >&2
  exit 1
fi

# --- Phase 3: restart on the same directory; recovery must agree. ---
drive 1 <<EOF
{"id": 99, "op": "shutdown"}
EOF
await_exit
start_server --data-dir "$datadir" --sync always --threads 2
drive 2 <<EOF
{"id": 100, "op": "query", "view": "paths", "pred": "tc"}
{"id": 101, "op": "shutdown"}
EOF
await_exit
recovered=$(sed -n '1p' "$replies" | certain_of)
if [[ "$recovered" != "$final" ]]; then
  echo "$SMOKE_NAME: recovered view differs from the raced view" >&2
  echo "  raced:     $final" >&2
  echo "  recovered: $recovered" >&2
  exit 1
fi

echo "$SMOKE_NAME: OK ($WRITERS writers x $FACTS_PER_WRITER commits raced $READERS readers; raced == cold == recovered)"

# --- Phase 4: the serving fleet — 1 primary + 2 replicas + router. --
# A durable primary, two WAL-shipping replicas, and the position-pinning
# router, all separate processes over real TCP. A replica is SIGKILLed
# mid-traffic (reads through the router must keep succeeding), and a
# freshly joined replacement must converge to answer byte-identically
# with the primary modulo epoch tags.
fleetdir="$work/fleet"
start_node primary cluster serve --data-dir "$fleetdir" --snapshot-every 3 --sync always --threads 2
pri_host=$host pri_port=$port pri_addr="$host:$port"

drive 2 <<EOF
{"id": 1, "op": "load", "facts": "e(1, 2). e(2, 3). e(3, 1)."}
{"id": 2, "op": "register", "view": "paths", "semantics": "stratified", "program": "$PROGRAM"}
EOF
if [[ $(grep -c '"ok":true' "$replies") -ne 2 ]]; then
  echo "$SMOKE_NAME: fleet primary setup failed:" >&2
  cat "$replies" >&2
  exit 1
fi

start_node replica0 cluster join --primary "$pri_addr"
rep0_pid=$node
start_node replica1 cluster join --primary "$pri_addr"
rep1_host=$host rep1_port=$port rep1_addr="$host:$port"
start_node router cluster route --primary "$pri_addr" \
  --replica "$addr" --replica "$rep1_addr"
router_host=$host router_port=$port

# A write through the router must be visible to the very next read: the
# router pins the primary's position, so replicas answer `stale`
# until they have applied it and the router fails over meanwhile.
drive 2 <<EOF
{"id": 10, "op": "assert", "fact": "e(3, 4)"}
{"id": 11, "op": "query", "view": "paths", "pred": "tc"}
EOF
if ! grep -q 'tc(1, 4)' "$replies"; then
  echo "$SMOKE_NAME: router read missed the acknowledged write:" >&2
  cat "$replies" >&2
  exit 1
fi

# Readers hammer the router while one replica dies mid-traffic.
router_reads=$((READERS * READS_PER_READER))
pids=()
outs=()
for r in $(seq 1 "$READERS"); do
  out="$work/fleet_reader_$r"
  outs+=("$out")
  reader "$out" &
  pids+=($!)
done
sleep 0.2
kill -9 "$rep0_pid"
for p in "${pids[@]}"; do
  wait "$p"
done
ok=$(cat "${outs[@]}" | grep -c '"ok":true')
if [[ "$ok" -ne "$router_reads" ]]; then
  echo "$SMOKE_NAME: reads failed after replica SIGKILL ($ok/$router_reads ok):" >&2
  grep -hv '"ok":true' "${outs[@]}" >&2 || true
  exit 1
fi

# Six more writes take the primary to generation 3, whose snapshot
# compacts generation 0 away: the replacement replica cannot start from
# an empty session and must bootstrap from the newest snapshot.
host=$router_host port=$router_port
drive 6 <<EOF
{"id": 30, "op": "assert", "fact": "e(10, 11)"}
{"id": 31, "op": "assert", "fact": "e(11, 12)"}
{"id": 32, "op": "assert", "fact": "e(12, 13)"}
{"id": 33, "op": "assert", "fact": "e(13, 14)"}
{"id": 34, "op": "assert", "fact": "e(14, 15)"}
{"id": 35, "op": "assert", "fact": "e(15, 16)"}
EOF
if [[ $(grep -c '"ok":true' "$replies") -ne 6 ]]; then
  echo "$SMOKE_NAME: fleet writes through the router failed:" >&2
  cat "$replies" >&2
  exit 1
fi
if [[ -e "$fleetdir/wal-000000000000.log" ]]; then
  echo "$SMOKE_NAME: generation 0 survived three snapshots:" >&2
  ls "$fleetdir" >&2
  exit 1
fi

# A replacement replica joins, catches up, and must answer exactly like
# the primary (modulo epochs) under the primary's own position pin.
start_node replica2 cluster join --primary "$pri_addr"
rep2_host=$host rep2_port=$port

host=$pri_host port=$pri_port
drive 1 <<EOF
{"id": 20, "op": "cluster-stats"}
EOF
epochs=$(sed -n 's/.*"epochs":\(\[[^]]*\]\).*/\1/p' "$replies" | head -n 1)
drive 1 <<EOF
{"id": 21, "op": "query", "view": "paths", "pred": "tc"}
EOF
cp "$replies" "$work/primary_final"

for rep in "$rep1_host:$rep1_port" "$rep2_host:$rep2_port"; do
  host=${rep%:*} port=${rep##*:}
  for _ in $(seq 100); do
    drive 1 <<EOF
{"id": 21, "min_epochs": $epochs, "op": "query", "view": "paths", "pred": "tc"}
EOF
    grep -q '"ok":true' "$replies" && break
    sleep 0.1
  done
  if ! grep -q '"ok":true' "$replies"; then
    echo "$SMOKE_NAME: replica $rep never caught up to $epochs:" >&2
    cat "$replies" >&2
    exit 1
  fi
  cp "$replies" "$work/replica_final"
  if ! diff_modulo_epoch "$work/primary_final" "$work/replica_final"; then
    echo "$SMOKE_NAME: replica $rep diverged from the primary" >&2
    exit 1
  fi
done

host=$rep2_host port=$rep2_port
drive 1 <<EOF
{"id": 22, "op": "cluster-stats"}
EOF
if ! grep -q '"bootstraps":1' "$replies"; then
  echo "$SMOKE_NAME: the late joiner did not bootstrap from a snapshot:" >&2
  cat "$replies" >&2
  exit 1
fi

# Orderly teardown: router first, then replicas, then the primary.
for down in "$router_host:$router_port" "$rep1_host:$rep1_port" \
  "$rep2_host:$rep2_port" "$pri_addr"; do
  host=${down%:*} port=${down##*:}
  drive 1 <<EOF
{"id": 99, "op": "shutdown"}
EOF
done

# The primary's directory is the single node's: at most two log and two
# snapshot generations, and nothing else.
files=$(find "$fleetdir" -type f | wc -l)
logs=$(find "$fleetdir" -name 'wal-*.log' | wc -l)
snaps=$(find "$fleetdir" -name 'snapshot-*.snap' | wc -l)
if [[ $logs -gt 2 || $snaps -gt 2 || $files -ne $((logs + snaps)) ]]; then
  echo "$SMOKE_NAME: fleet directory not bounded ($files files):" >&2
  ls "$fleetdir" >&2
  exit 1
fi

echo "$SMOKE_NAME: OK (fleet survived a SIGKILLed replica; late joiner bootstrapped == primary modulo epochs; $files files on disk)"
