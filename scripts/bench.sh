#!/usr/bin/env bash
# Wall-clock benchmark of the controller hot path: times the fixed
# paper-lineup sweep (tcm-run --bench-json) five times — on the default
# build, on a 2x2 multi-controller topology with the controller phase
# sharded over two host threads (default build), the same 2x2 sweep
# with the protocol checker armed and again with an empty fault plan
# installed (isolating the chaos layer's cost), and with the telemetry
# hooks compiled out (--features tcm-telemetry/off) — and merges the
# records into BENCH_hotpath.json with the disabled-telemetry overhead
# and the empty-plan chaos overhead. The two single-controller builds
# are bit-identical to each other (the multi rows simulate a different
# machine); only the wall clock differs. The full run gates the telemetry-hook overhead and the
# empty-fault-plan overhead at <2% each (disabled hooks are one branch
# on a None option; an inert chaos layer is a None check per window);
# smoke mode only reports them, since sub-second runs are all noise.
# A final leg times a daemon sweep with and without a `tcm-run top`
# observer attached and gates the perturbation at <2% — watching the
# daemon must not slow it down.
#
# Usage:
#   scripts/bench.sh            full run (2M-cycle horizon per cell)
#   scripts/bench.sh --smoke    quick schema-validating run (CI gate)
#
# Everything works offline; JSON merging uses python3 (stdlib only).
set -euo pipefail
cd "$(dirname "$0")/.."

CYCLES=2000000
SMOKE=0
# Sub-second sweeps have several percent of run-to-run noise; the full
# run times each variant RUNS times and keeps the fastest, which is what
# the 2% telemetry-overhead gate is applied to. Contended machines need
# more samples for the overhead gates to converge: override with
# BENCH_RUNS.
RUNS="${BENCH_RUNS:-3}"
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    CYCLES=100000
    RUNS=1
elif [[ -n "${1:-}" ]]; then
    echo "usage: scripts/bench.sh [--smoke]" >&2
    exit 2
fi

TMPDIR_BENCH=$(mktemp -d)
trap 'rm -rf "$TMPDIR_BENCH"' EXIT
# Smoke mode must not clobber the committed full-run record with tiny
# numbers: it writes to a scratch path and, after validating that, also
# schema-checks the committed BENCH_hotpath.json if present.
OUT=BENCH_hotpath.json
if [[ "$SMOKE" == 1 ]]; then
    OUT="$TMPDIR_BENCH/BENCH_hotpath.json"
fi

# All feature variants build the same binary path, so build each in
# sequence and squirrel the binary away; the timed runs then interleave
# *across* variants round-robin. Sequential per-variant timing blocks
# would let slow machine-load drift masquerade as variant overhead —
# interleaving spreads the drift evenly, which is what the <2% overhead
# gates assume.
build_variant() {
    local impl="$1"; shift
    echo "==> build: $impl"
    cargo build --release --offline -p tcm-serve --bin tcm-run "$@"
    cp target/release/tcm-run "$TMPDIR_BENCH/bin-$impl"
}

build_variant indexed
build_variant nohooks --features tcm-telemetry/off
# Leave the default build in place for whoever runs next.
cargo build --release --offline -p tcm-serve --bin tcm-run >/dev/null 2>&1 || true

# The five timed variants:
# - indexed / nohooks: the fixed flat-topology sweep on each build
#   (telemetry-hook cost).
# - multi: the same sweep on a 2x2 topology (two controllers x two
#   channels, TCM cells coordinated by the meta-controller), controller
#   phase sharded over two host threads; runs on the default build.
# - multi_verify / multi_chaos: the multi sweep with the protocol
#   checker armed, then with an *empty* fault plan installed (same
#   checker plus the inert chaos state). The pair isolates the chaos
#   layer's overhead from the checker's; the full run gates it at <2% —
#   when no fault is scheduled, the layer must be free.
echo "==> timed runs: $RUNS interleaved rounds x 5 variants"
for k in $(seq "$RUNS"); do
    "$TMPDIR_BENCH/bin-indexed" \
        --bench-json "$TMPDIR_BENCH/indexed.run$k.json" --cycles "$CYCLES"
    "$TMPDIR_BENCH/bin-indexed" \
        --bench-json "$TMPDIR_BENCH/multi.run$k.json" --cycles "$CYCLES" \
        --topology 2x2 --intra-hosts 2
    "$TMPDIR_BENCH/bin-indexed" \
        --bench-json "$TMPDIR_BENCH/multi_verify.run$k.json" --cycles "$CYCLES" \
        --topology 2x2 --intra-hosts 2 --verify
    "$TMPDIR_BENCH/bin-indexed" \
        --bench-json "$TMPDIR_BENCH/multi_chaos.run$k.json" --cycles "$CYCLES" \
        --topology 2x2 --intra-hosts 2 --chaos-empty
    "$TMPDIR_BENCH/bin-nohooks" \
        --bench-json "$TMPDIR_BENCH/nohooks.run$k.json" --cycles "$CYCLES"
done

python3 - "$TMPDIR_BENCH" "$OUT" "$SMOKE" <<'PY'
import glob
import json
import statistics
import sys

tmp, out_path, smoke = sys.argv[1:4]

REQUIRED = {
    "schema": str, "topology": str, "threads": int,
    "horizon": int, "policies": list, "workloads": list, "cells": int,
    "alone_runs": int, "workers": int, "sim_cycles": int,
    "wall_secs": float, "sim_cycles_per_sec": float, "cells_per_sec": float,
    "peak_queue_depth": int,
}

def load(path):
    with open(path) as f:
        record = json.load(f)
    for key, kind in REQUIRED.items():
        if key not in record:
            sys.exit(f"{path}: missing key {key!r}")
        if not isinstance(record[key], kind):
            sys.exit(f"{path}: key {key!r} is {type(record[key]).__name__}, "
                     f"expected {kind.__name__}")
    if record["schema"] != "tcm-bench-hotpath-v1":
        sys.exit(f"{path}: unexpected schema {record['schema']!r}")
    if record["sim_cycles_per_sec"] <= 0:
        sys.exit(f"{path}: non-positive sim_cycles_per_sec")
    return record

def load_runs(variant):
    paths = sorted(glob.glob(f"{tmp}/{variant}.run*.json"))
    if not paths:
        sys.exit(f"no bench records for variant {variant!r}")
    return [load(p) for p in paths]

def best(records):
    """Fastest repeated run: the quiet-floor throughput estimate, used
    for the headline variant records."""
    return max(records, key=lambda r: r["sim_cycles_per_sec"])

def median_rate(records):
    """Median throughput across the interleaved rounds: the robust
    estimate for the A/B *overhead ratios*, where a single lucky or
    unlucky round on a contended machine would otherwise swing the
    <2% gates by several points."""
    return statistics.median(r["sim_cycles_per_sec"] for r in records)

indexed_runs = load_runs("indexed")
multi_runs = load_runs("multi")
multi_verify_runs = load_runs("multi_verify")
multi_chaos_runs = load_runs("multi_chaos")
nohooks_runs = load_runs("nohooks")
indexed = best(indexed_runs)
multi = best(multi_runs)
multi_verify = best(multi_verify_runs)
multi_chaos = best(multi_chaos_runs)
nohooks = best(nohooks_runs)
if nohooks.get("telemetry_impl", "off") != "off":
    sys.exit("nohooks variant: expected the tcm-telemetry/off build")
if indexed["topology"] != "4":
    sys.exit(f"indexed variant: expected the flat 4-channel topology, "
             f"got {indexed['topology']!r}")
if multi["topology"] != "2x2":
    sys.exit(f"multi variant: expected the 2x2 topology, "
             f"got {multi['topology']!r}")
for name, other in (("multi_verify", multi_verify),
                    ("multi_chaos", multi_chaos)):
    if other["topology"] != "2x2":
        sys.exit(f"{name} variant: expected the 2x2 topology, "
                 f"got {other['topology']!r}")
for key in ("threads", "horizon", "cells", "policies", "workloads"):
    for name, other in (("multi", multi), ("multi_verify", multi_verify),
                        ("multi_chaos", multi_chaos), ("nohooks", nohooks)):
        if indexed[key] != other[key]:
            sys.exit(f"variant mismatch ({name}) on {key!r}: "
                     f"{indexed[key]!r} vs {other[key]!r}")
# The empty fault plan and the bare checker simulate the same machine;
# an armed-but-inert chaos layer must not change a single behavioral
# bit.
if multi["peak_queue_depth"] != multi_verify["peak_queue_depth"]:
    sys.exit("peak_queue_depth differs with the protocol checker armed — "
             "verification is supposed to be observation-only")
if multi_verify["peak_queue_depth"] != multi_chaos["peak_queue_depth"]:
    sys.exit("peak_queue_depth differs under the empty fault plan — the "
             "inert chaos layer is supposed to be bit-identical")
# Same simulation either way: the peak depth is a behavioral quantity and
# must agree bit-for-bit between the builds.
if indexed["peak_queue_depth"] != nohooks["peak_queue_depth"]:
    sys.exit("peak_queue_depth differs with telemetry hooks compiled out — "
             "disabled telemetry is supposed to be bit-identical")

# Positive = the hooks build (telemetry disabled at runtime) is slower
# than the build with hooks compiled out entirely.
overhead_pct = 100.0 * (median_rate(nohooks_runs)
                        / median_rate(indexed_runs) - 1.0)
# Positive = the empty fault plan is slower than the bare checker: both
# arm the same protocol verification, so the delta is the chaos layer
# alone.
chaos_overhead_pct = 100.0 * (median_rate(multi_verify_runs)
                              / median_rate(multi_chaos_runs) - 1.0)
# The multi engine's remaining gap vs the flat (single-controller)
# engine on the same build: ROADMAP's "24x penalty" was this ratio at
# ~0.04. Recorded so the windowed engine's cost is tracked
# release-over-release instead of eyeballed. (The two variants simulate
# different machines — 4 flat channels vs 2x2 — so this is a
# same-horizon throughput ratio, not an A/B of identical work; 1.0 means
# the window-barrier machinery no longer costs wall clock.)
multi_over_flat = multi["sim_cycles_per_sec"] / indexed["sim_cycles_per_sec"]
merged = {
    "schema": "tcm-bench-hotpath-v1",
    "generated_by": "scripts/bench.sh" + (" --smoke" if smoke == "1" else ""),
    "indexed": indexed,
    "multi": multi,
    "multi_verify": multi_verify,
    "multi_chaos": multi_chaos,
    "nohooks": nohooks,
    "multi_over_flat_ratio": multi_over_flat,
    "telemetry_disabled_overhead_pct": overhead_pct,
    "chaos_empty_plan_overhead_pct": chaos_overhead_pct,
}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

print(f"indexed: {indexed['sim_cycles_per_sec']:.3e} sim-cycles/sec "
      f"({indexed['wall_secs']:.2f}s)")
print(f"multi:   {multi['sim_cycles_per_sec']:.3e} sim-cycles/sec "
      f"({multi['wall_secs']:.2f}s, 2x2 topology, 2 intra-cell hosts)")
print(f"record -> {out_path}")
print(f"multi over flat-engine ratio: {multi_over_flat:.3f} "
      f"(windowed-engine gap; 1.0 = parity)")
print(f"telemetry hooks, disabled at runtime, vs compiled out: "
      f"{overhead_pct:+.2f}% overhead")
print(f"empty fault plan vs bare protocol checker (2x2): "
      f"{chaos_overhead_pct:+.2f}% overhead")
if smoke != "1" and overhead_pct > 2.0:
    sys.exit(f"disabled-telemetry overhead {overhead_pct:.2f}% exceeds the "
             f"2% budget — the hooks must stay one branch when disabled")
if smoke != "1" and chaos_overhead_pct > 2.0:
    sys.exit(f"empty-fault-plan overhead {chaos_overhead_pct:.2f}% exceeds "
             f"the 2% budget — an inert chaos layer must be free")
if smoke == "1":
    print("smoke mode: schema validated; absolute numbers not gated")
    # Also schema-check the committed record, if one exists.
    import os
    if os.path.exists("BENCH_hotpath.json"):
        with open("BENCH_hotpath.json") as f:
            committed = json.load(f)
        for key in ("schema", "indexed", "multi", "multi_over_flat_ratio"):
            if key not in committed:
                sys.exit(f"committed BENCH_hotpath.json: missing key {key!r}")
        ratio = committed["multi_over_flat_ratio"]
        if not isinstance(ratio, float) or not 0.0 < ratio:
            sys.exit(f"committed BENCH_hotpath.json: multi_over_flat_ratio "
                     f"{ratio!r} is not a positive float")
        if committed["schema"] != "tcm-bench-hotpath-v1":
            sys.exit("committed BENCH_hotpath.json: unexpected schema")
        for variant in ("indexed", "multi"):
            for key in REQUIRED:
                if key not in committed[variant]:
                    sys.exit(f"committed BENCH_hotpath.json [{variant}]: "
                             f"missing key {key!r}")
        print("committed BENCH_hotpath.json: schema ok")
PY

# Observer-effect gate: the observability surface is read-only, so a
# `tcm-run top`-style poller (Status+Metrics on a timer plus a Watch
# stream on the active job) attached to the daemon must not perturb
# sweep throughput. Bare and observed rounds interleave — same
# drift-spreading rationale as the variant rounds above — and the full
# run gates the median-to-median delta at <2%. Smoke mode reports only:
# sub-second daemon sweeps are all scheduler noise.
echo "==> observer-effect rounds: $RUNS x (bare, observed)"
OBS_GRID=(--policies fr-fcfs,tcm --workloads random:5:4:0.75 --seeds 0,1
          --cycles "$CYCLES")
obs_round() {
    local mode="$1" k="$2"
    local dir="$TMPDIR_BENCH/obs-$mode-$k"
    local sock="$dir/sock"
    mkdir -p "$dir"
    "$TMPDIR_BENCH/bin-indexed" serve --socket "$sock" --state-dir "$dir" \
        --workers 1 --log-level warn &
    local daemon=$!
    for _ in $(seq 200); do
        [[ -S "$sock" ]] && break
        sleep 0.05
    done
    local top_pid=""
    if [[ "$mode" == observed ]]; then
        "$TMPDIR_BENCH/bin-indexed" top --socket "$sock" --interval 0.2 \
            >/dev/null 2>&1 &
        top_pid=$!
    fi
    local t0 t1
    t0=$(date +%s%N)
    "$TMPDIR_BENCH/bin-indexed" client --socket "$sock" \
        submit "${OBS_GRID[@]}" --watch >/dev/null
    t1=$(date +%s%N)
    if [[ -n "$top_pid" ]]; then
        kill "$top_pid" 2>/dev/null || true
    fi
    "$TMPDIR_BENCH/bin-indexed" client --socket "$sock" drain >/dev/null
    wait "$daemon"
    echo $(( t1 - t0 )) >> "$TMPDIR_BENCH/obs-$mode.ns"
}
for k in $(seq "$RUNS"); do
    obs_round bare "$k"
    obs_round observed "$k"
done

python3 - "$TMPDIR_BENCH" "$OUT" "$SMOKE" <<'PY'
import json
import statistics
import sys

tmp, out_path, smoke = sys.argv[1:4]

def med(mode):
    with open(f"{tmp}/obs-{mode}.ns") as f:
        return statistics.median(int(line) for line in f if line.strip())

bare, observed = med("bare"), med("observed")
pct = 100.0 * (observed / bare - 1.0)
with open(out_path) as f:
    merged = json.load(f)
merged["observer_overhead_pct"] = pct
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"observer effect: bare {bare/1e9:.2f}s vs observed {observed/1e9:.2f}s "
      f"median sweep wall-clock ({pct:+.2f}%)")
if smoke != "1" and pct > 2.0:
    sys.exit(f"Watch+Metrics poller perturbs daemon throughput by {pct:.2f}% "
             f"— over the 2% observability budget; the scrape path must stay "
             f"off the worker hot path")
PY
