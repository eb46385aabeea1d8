#!/usr/bin/env bash
# Profile-guided-optimization A/B for the benchmark (e2e_bench/, see
# BENCHMARK.json).
#
# Three phases, exactly the classic rustc PGO loop:
#   1. build e2e_bench with `-Cprofile-generate`;
#   2. replay `retro_chain_dense` (the kernels) and `live_cluster_spill`
#      (wire, ingest, store) with `--trace 0` to collect profiles;
#   3. merge with llvm-profdata and rebuild with `-Cprofile-use`, then run
#      every workload on the plain and the PGO build and compare them with
#      `e2e_bench compare plain.json pgo.json`.
#
# The merge step needs an llvm-profdata whose LLVM major matches the
# rustc that produced the .profraw files. The rustup `llvm-tools`
# component ships one in the sysroot; a distro llvm-profdata only works
# if its LLVM is new enough (an LLVM-14 profdata cannot read LLVM-22
# profraws — the script detects this and says so rather than failing
# cryptically).
#
# Results land in target/pgo/: <workload>.plain.json and
# <workload>.pgo.json result lines, and compare.txt with the verdicts.

set -euo pipefail
cd "$(dirname "$0")/.."

PGO=target/pgo
PROFILES=$PGO/profiles
MANIFEST=e2e_bench/Cargo.toml
TRAIN=(retro_chain_dense live_cluster_spill)
WORKLOADS=(retro_fig3_gaps retro_chain_dense live_cluster_spill history_query_mix)

host=$(rustc -vV | sed -n 's/^host: //p')
sysroot=$(rustc --print sysroot)

# Prefer the toolchain's own llvm-profdata (always format-compatible).
PROFDATA="$sysroot/lib/rustlib/$host/bin/llvm-profdata"
if [ ! -x "$PROFDATA" ]; then
    PROFDATA=$(command -v llvm-profdata || true)
fi
if [ -z "${PROFDATA:-}" ]; then
    echo "pgo: no llvm-profdata found; install the rustup llvm-tools component" >&2
    exit 1
fi

build() { # build <target-dir> <rustflags>
    RUSTFLAGS="$2" cargo build --release --offline --manifest-path "$MANIFEST" --target-dir "$1"
}

run() { # run <target-dir> <workload> <seconds>
    "$1/release/e2e_bench" run --workload "$2" --seed 1 --seconds "$3" --trace 0
}

rm -rf "$PROFILES"
mkdir -p "$PROFILES"

echo "== phase 1: instrumented build (-Cprofile-generate)"
build "$PGO/gen" "-Cprofile-generate=$(pwd)/$PROFILES"

echo "== phase 2: replay ${TRAIN[*]}"
for w in "${TRAIN[@]}"; do
    run "$PGO/gen" "$w" 2 > /dev/null
done

echo "== phase 3: merge profiles + rebuild (-Cprofile-use)"
if ! "$PROFDATA" merge -o "$PGO/merged.profdata" "$PROFILES"/*.profraw; then
    echo "pgo: profile merge failed — $PROFDATA cannot read the profraw format" >&2
    echo "pgo: rustc's LLVM is $(rustc -vV | sed -n 's/^LLVM version: //p'); use the" >&2
    echo "pgo: rustup llvm-tools component (or a matching distro LLVM) and re-run." >&2
    exit 1
fi
build "$PGO/use" "-Cprofile-use=$(pwd)/$PGO/merged.profdata"

echo "== A/B: plain release vs PGO build"
build "$PGO/plain" ""
: > "$PGO/compare.txt"
for w in "${WORKLOADS[@]}"; do
    run "$PGO/plain" "$w" 5 > "$PGO/$w.plain.json"
    run "$PGO/use" "$w" 5 > "$PGO/$w.pgo.json"
    echo "== $w" | tee -a "$PGO/compare.txt"
    "$PGO/plain/release/e2e_bench" compare "$PGO/$w.plain.json" "$PGO/$w.pgo.json" \
        | tee -a "$PGO/compare.txt" || echo "pgo: $w is worse on PGO beyond a bound" | tee -a "$PGO/compare.txt"
done
echo "result lines and compare.txt in $PGO/"
