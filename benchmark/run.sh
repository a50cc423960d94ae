#!/usr/bin/env bash
# The benchmark's one entry point. It builds the repository's `algrec`
# binary and the benchmark package (release, offline), then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result object
#       (this is the command BENCHMARK.json declares)
#   run.sh [--seed N] [--seconds S] [--repeats K]
#       every workload, untraced K times then traced once; prints every
#       metric by name with its unit and writes benchmark/out/result.json
#   run.sh --compare A.json B.json
#       one row per metric x workload with verdict same / worse /
#       unresolved; exits non-zero if any row is worse
#
# Build output goes to stderr so that stdout stays the benchmark's own.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, so the crates they share compile
# once. A relative CARGO_TARGET_DIR is relative to the repository root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bench="$target/release/algrec-benchmark"

if [ "${1:-}" = "--compare" ]; then
    exec "$bench" "$@"
fi

cargo build --release --offline --bin algrec >&2

# The environment envelope: what cannot be read from inside the process.
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_NPROC="$(nproc)" # before the pinning below narrows what the process sees
export BENCH_COMMIT BENCH_RUSTC BENCH_NPROC

mode=(--all)
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then mode=(); fi
done
set -- ${mode[@]+"${mode[@]}"} "$@" --bin "$target/release/algrec" --out benchmark/out

# One core for the server and the CLI jobs, one for the generator: left
# to the kernel, the two sometimes share a CPU and sometimes do not, and
# every latency then swings with the wake-up path a run happens to get.
if command -v taskset >/dev/null 2>&1 && [ "$(nproc)" -ge 2 ]; then
    export BENCH_CHILD_CPU=0
    exec taskset -c 1 "$bench" "$@"
fi
exec "$bench" "$@"
