#!/usr/bin/env bash
# Promote a measured bench JSON (usually a CI `bench-json-*` artifact) to
# the committed baseline in crates/bench/results/.
#
# The bench-regression gate compares portable ratios against these
# committed files. All five were measured on a 2-core box with CI's own
# settings (each records its `host_cores`; thread-scaling curves are
# only meaningful relative to that field). CI runs every bench on the
# real runner and uploads the JSONs as artifacts; this script is the
# promotion path: it validates that an artifact is gate-ready (known
# bench id, gated metric present, real `host_cores` recorded) and
# copies it into place.
#
# Usage: scripts/promote_baseline.sh <artifact.json> [<artifact.json>...]

set -euo pipefail
cd "$(dirname "$0")/.."

RESULTS=crates/bench/results

# bench id -> gated metric; keep in sync with bench_gate's metric_for().
metric_for() {
    case "$1" in
        sharded_scaling) echo pooled_vs_cold_speedup_1_worker ;;
        live_throughput) echo batched_vs_per_sample_speedup ;;
        net_throughput) echo batched_vs_per_frame_speedup ;;
        history_throughput) echo spill_vs_no_store_ratio ;;
        kernel_bench) echo fused_vs_staged_ratio ;;
        *) echo "" ;;
    esac
}

field() { # field <file> <key> -> prints the scalar or nothing
    sed -n 's/.*"'"$2"'":[[:space:]]*\([-0-9.eE]*\).*/\1/p' "$1" | head -n 1
}

[ $# -ge 1 ] || {
    echo "usage: $0 <artifact.json> [<artifact.json>...]" >&2
    exit 1
}

for src in "$@"; do
    [ -r "$src" ] || { echo "promote: cannot read $src" >&2; exit 1; }
    bench=$(sed -n 's/.*"bench":[[:space:]]*"\([a-z_0-9]*\)".*/\1/p' "$src" | head -n 1)
    [ -n "$bench" ] || { echo "promote: $src has no \"bench\" field" >&2; exit 1; }
    metric=$(metric_for "$bench")
    [ -n "$metric" ] || { echo "promote: unknown bench id '$bench' in $src" >&2; exit 1; }
    value=$(field "$src" "$metric")
    [ -n "$value" ] || { echo "promote: $src is missing gated metric $metric" >&2; exit 1; }
    cores=$(field "$src" host_cores)
    [ -n "$cores" ] || { echo "promote: $src is missing host_cores" >&2; exit 1; }
    dest="$RESULTS/$bench.json"
    if [ "$(realpath "$src")" = "$(realpath "$dest" 2>/dev/null || true)" ]; then
        echo "promote: $src already is the committed baseline" >&2
        exit 1
    fi
    cp "$src" "$dest"
    echo "promoted $src -> $dest ($metric=$value, host_cores=$cores)"
done
