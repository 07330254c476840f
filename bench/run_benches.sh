#!/bin/sh
# Run the JSON-emitting benches and record their outputs at the repo
# root (BENCH_*.json), so the bench trajectory is tracked in-tree.
#
# Usage: bench/run_benches.sh [build-dir]
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

# Preflight: every bench this script runs must exist. A missing
# binary means a stale or partial build — fail loudly up front
# instead of silently emitting a subset of the BENCH_*.json files.
missing=""
for bench in bench_parallel_pipeline micro_codec bench_cluster \
             bench_optimizer bench_observability bench_fleet_scale \
             bench_live_surge bench_global bench_profile; do
    [ -x "$build_dir/bench/$bench" ] || missing="$missing $bench"
done
if [ -n "$missing" ]; then
    echo "missing bench binaries in $build_dir:$missing" >&2
    echo "run: cmake -B $build_dir -S $repo_root &&" \
         "cmake --build $build_dir -j" >&2
    exit 1
fi

echo "Running bench_parallel_pipeline ..." >&2
"$build_dir/bench/bench_parallel_pipeline" \
    > "$repo_root/BENCH_pipeline.json"

# micro_codec: medians of 5 repetitions of each codec kernel on the
# scalar reference (dispatch:0) and on what the codec dispatches to on
# this CPU (dispatch:1), plus both BM_EncodeFrame arguments, merged
# into BENCH_pipeline.json. On a CPU with AVX2 each dispatched kernel
# must beat its scalar reference. The half-pel filter, the rate
# estimate and the downscaler have one code path each, so their
# medians are recorded without that check.
echo "Running micro_codec ..." >&2
command -v python3 >/dev/null \
    || { echo "micro_codec needs python3 to merge its medians" >&2; exit 1; }
micro_json=$(mktemp)
"$build_dir/bench/micro_codec" \
    --benchmark_filter='^BM_(BlockSad16|BlockSadBounded16|SadAgainstBlock16|ForwardDct8x8|Quantize8x8|InverseDct8x8|TransformQuantizeRoundTrip|EncodeFrame|MotionCompensateHalfPel|EstimateCoeffBits|ScalePlane)/' \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$micro_json"
if ! python3 - "$repo_root/BENCH_pipeline.json" "$micro_json" <<'EOF'
import json, sys
path, micro_path = sys.argv[1], sys.argv[2]
doc = json.load(open(path))
micro = json.load(open(micro_path))
scale_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
medians = {}
loops = []
for b in micro["benchmarks"]:
    if b.get("aggregate_name") == "median":
        ns = b["real_time"] * scale_ns[b["time_unit"]]
        medians[b["run_name"]] = ns
        if b["run_name"].startswith(("BM_MotionCompensateHalfPel/",
                                     "BM_EstimateCoeffBits/",
                                     "BM_ScalePlane/")):
            loops.append({"name": b["run_name"], "median_ns": round(ns, 1)})
avx2 = "avx2" in open("/proc/cpuinfo").read().split()
kernels = []
for name in ("BM_ForwardDct8x8", "BM_Quantize8x8", "BM_InverseDct8x8",
             "BM_TransformQuantizeRoundTrip", "BM_BlockSad16",
             "BM_BlockSadBounded16", "BM_SadAgainstBlock16"):
    scalar = medians[name + "/dispatch:0"]
    dispatched = medians[name + "/dispatch:1"]
    kernels.append({"name": name, "scalar_ns": round(scalar, 1),
                    "dispatched_ns": round(dispatched, 1),
                    "speedup": round(scalar / dispatched, 2)})
    if avx2:
        assert dispatched < scalar, \
            f"{name}: dispatched {dispatched:.1f} ns >= scalar {scalar:.1f} ns"
# Six half-pel cases, two rate estimates, two downscales.
assert len(loops) == 10, f"expected 10 single-path loop medians, got {len(loops)}"
doc["micro_codec"] = {
    "repetitions": 5,
    "statistic": "median",
    "cpu_avx2": avx2,
    "kernels": kernels,
    "single_path_loops": loops,
    "encode_frame_ms": {
        "software": round(medians["BM_EncodeFrame/0"] / 1e6, 3),
        "hardware": round(medians["BM_EncodeFrame/1"] / 1e6, 3)},
}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
then
    rm -f "$micro_json"
    echo "micro_codec medians failed their check" >&2
    exit 1
fi
rm -f "$micro_json"
echo "Wrote $repo_root/BENCH_pipeline.json" >&2

echo "Running bench_cluster ..." >&2
"$build_dir/bench/bench_cluster" \
    > "$repo_root/BENCH_cluster.json"
echo "Wrote $repo_root/BENCH_cluster.json" >&2

echo "Running bench_optimizer ..." >&2
"$build_dir/bench/bench_optimizer" \
    > "$repo_root/BENCH_optimizer.json"
echo "Wrote $repo_root/BENCH_optimizer.json" >&2

# bench_observability exits non-zero when the tracing/SLO overhead
# blows its 5% budget; with `set -e` that fails this script too.
echo "Running bench_observability ..." >&2
"$build_dir/bench/bench_observability" \
    > "$repo_root/BENCH_observability.json"
echo "Wrote $repo_root/BENCH_observability.json" >&2

# bench_fleet_scale exits non-zero on a conservation or telemetry-
# gating failure; on success its JSON is schema-checked before the
# file is accepted (the fleet-scale claims — 200k VCUs, >= 1M steps,
# a measured RSS per worker — are load-bearing numbers), and the
# top-scale throughput is gated against the previous committed file:
# a >10% events/s drop fails the run. Together these are the absolute
# gate on the event engine. The committed baseline runs
# profiler-dark, so this gate is also the "dark mode costs ~nothing"
# regression check for the profiling layer. The baseline is committed
# in-tree, so its absence means a broken checkout — fail loudly
# rather than silently skipping the gate.
echo "Running bench_fleet_scale ..." >&2
if [ ! -f "$repo_root/BENCH_fleet_scale.json" ]; then
    echo "missing baseline $repo_root/BENCH_fleet_scale.json" \
         "(needed for the events/s regression gate)" >&2
    exit 1
fi
prev_fleet_eps=$(python3 -c '
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
    top = max(doc["sweep"], key=lambda s: s["hosts"])
    print(top["event"]["events_per_s"])
except Exception:
    pass' "$repo_root/BENCH_fleet_scale.json")
if [ -z "$prev_fleet_eps" ]; then
    echo "baseline BENCH_fleet_scale.json is unreadable" >&2
    exit 1
fi
"$build_dir/bench/bench_fleet_scale" \
    > "$repo_root/BENCH_fleet_scale.json"
if ! python3 - "$repo_root/BENCH_fleet_scale.json" \
              "$prev_fleet_eps" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "fleet_scale"
for key in ("scenario", "sweep", "observability_gating"):
    assert key in doc, f"missing key: {key}"
top = max(doc["sweep"], key=lambda s: s["hosts"])
assert top["vcus"] >= 200000, "top scale below 200k VCUs"
assert top["event"]["steps_submitted"] >= 1000000, "below 1M steps"
assert top["event"]["events_per_s"] > 0
assert top["event"]["rss_bytes_per_worker"] > 0
assert doc["conservation_holds_all_arms"] is True
prev = sys.argv[2] if len(sys.argv) > 2 else ""
if prev:
    cur = float(top["event"]["events_per_s"])
    ref = float(prev)
    assert cur >= 0.90 * ref, \
        f"events/s regressed >10%: {cur:.0f} vs {ref:.0f}"
EOF
then
    echo "BENCH_fleet_scale.json failed schema check" >&2
    exit 1
fi
echo "Wrote $repo_root/BENCH_fleet_scale.json" >&2

# bench_live_surge exits non-zero on a conservation violation or when
# the live SLO acceptance fails in-process. Its JSON is then schema-
# checked, and the shed-arm live p99 is compared against the previous
# committed BENCH_live_surge.json: a >10% regression fails the run.
echo "Running bench_live_surge ..." >&2
prev_live_p99=""
if [ -f "$repo_root/BENCH_live_surge.json" ]; then
    prev_live_p99=$(python3 -c '
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
    print(doc["acceptance"]["live_p99_shed_s"])
except Exception:
    pass' "$repo_root/BENCH_live_surge.json")
fi
"$build_dir/bench/bench_live_surge" \
    > "$repo_root/BENCH_live_surge.json"
if ! python3 - "$repo_root/BENCH_live_surge.json" \
              "$prev_live_p99" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "live_surge"
for key in ("scenario", "arms", "acceptance"):
    assert key in doc, f"missing key: {key}"
for arm in ("baseline", "surge_shed", "surge_noshed"):
    a = doc["arms"][arm]
    assert a["conservation"]["holds"] is True, f"{arm}: ledger broken"
    c = a["conservation"]
    assert c["submitted"] == (c["completed"] + c["failed_terminal"] +
                              c["in_flight"] + c["backlog"] + c["shed"]), \
        f"{arm}: conservation terms do not balance"
assert doc["scenario"]["vcus"] >= 20000, "below 20k VCUs"
assert doc["scenario"]["surge_multiplier"] >= 10, "surge below 10x"
acc = doc["acceptance"]
assert acc["shed_under_budget"] is True, \
    "shed arm misses deadlines over budget"
assert acc["noshed_over_budget"] is True, \
    "no-shed arm fails to demonstrate the SLO violation"
assert doc["arms"]["surge_shed"]["steps_shed"] > 0, "no shedding seen"
assert doc["conservation_holds_all_arms"] is True
prev = sys.argv[2] if len(sys.argv) > 2 else ""
if prev:
    cur = float(acc["live_p99_shed_s"])
    ref = float(prev)
    assert cur <= 1.10 * ref, \
        f"live p99 regressed >10%: {cur:.3f}s vs {ref:.3f}s"
EOF
then
    echo "BENCH_live_surge.json failed schema check" >&2
    exit 1
fi
echo "Wrote $repo_root/BENCH_live_surge.json" >&2

# bench_global exits non-zero on a cross-region conservation violation
# or when health gating fails to beat the ungated ablation arm under
# the black-hole fault. Its JSON is schema-checked, and the gated-arm
# availability is compared against the previous committed
# BENCH_global.json: a >5% regression fails the run.
echo "Running bench_global (3 arms x 100k VCUs) ..." >&2
prev_global_avail=""
if [ -f "$repo_root/BENCH_global.json" ]; then
    prev_global_avail=$(python3 -c '
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
    print(doc["acceptance"]["availability_gated"])
except Exception:
    pass' "$repo_root/BENCH_global.json")
fi
"$build_dir/bench/bench_global" \
    > "$repo_root/BENCH_global.json"
if ! python3 - "$repo_root/BENCH_global.json" \
              "$prev_global_avail" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "global"
for key in ("scenario", "arms", "acceptance"):
    assert key in doc, f"missing key: {key}"
assert doc["scenario"]["vcus"] >= 100000, "below 100k aggregate VCUs"
for arm in ("baseline", "blackhole_gated", "blackhole_ungated"):
    a = doc["arms"][arm]
    c = a["conservation"]
    assert c["holds"] is True, f"{arm}: global ledger broken"
    assert c["submitted"] == (c["completed"] + c["failed_terminal"] +
                              c["in_flight"] + c["backlog"] +
                              c["shed"] + c["pending"]), \
        f"{arm}: conservation terms do not balance"
    assert a["regions_hold"] is True, f"{arm}: a region ledger broke"
    assert a["audit_violations"] == 0, f"{arm}: audit violations"
acc = doc["acceptance"]
assert acc["baseline_clean"] is True, "fault-free arm saw retries"
assert acc["gate_tripped_both_arms"] is True, "black hole undetected"
assert acc["availability_wins"] is True, \
    "gating did not improve availability"
assert acc["amplification_bounded"] is True, \
    "gated retry amplification unbounded"
prev = sys.argv[2] if len(sys.argv) > 2 else ""
if prev:
    cur = float(acc["availability_gated"])
    ref = float(prev)
    assert cur >= 0.95 * ref, \
        f"gated availability regressed >5%: {cur:.4f} vs {ref:.4f}"
EOF
then
    echo "BENCH_global.json failed schema check" >&2
    exit 1
fi
echo "Wrote $repo_root/BENCH_global.json" >&2

# bench_profile exits non-zero on a broken ledger, an empty profile,
# or an absurd profiler-overhead ratio; its JSON is then schema-
# checked (the top-10 hotspot table and the dispatch-share answer to
# the ROADMAP sharding question are the load-bearing pieces).
echo "Running bench_profile (fleet arms take ~10 s) ..." >&2
"$build_dir/bench/bench_profile" \
    > "$repo_root/BENCH_profile.json"
if ! python3 - "$repo_root/BENCH_profile.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "profile"
for key in ("scenario", "fleet_hotspots", "overhead", "codec_kernels"):
    assert key in doc, f"missing key: {key}"
hot = doc["fleet_hotspots"]
assert doc["scenario"]["vcus"] >= 200000, "below 200k VCUs"
assert len(hot["top10"]) >= 5, "fewer than 5 hotspots attributed"
for row in hot["top10"]:
    assert row["phase"] and row["calls"] >= 1
    assert row["excl_ms"] <= row["incl_ms"] + 1e-9
assert hot["total_samples"] > 0, "wall-clock sampler collected nothing"
sq = hot["sharding_question"]
assert sq["run_incl_ms"] > 0 and 0 <= sq["dispatch_share_pct"] <= 100
assert doc["overhead"]["within_sanity_budget"] is True
kernels = doc["codec_kernels"]["kernels"]
assert len(kernels) >= 3, "codec kernel attribution incomplete"
assert doc["codec_kernels"]["top_simd_target"], "no SIMD target ranked"
assert doc["conservation_holds_all_arms"] is True
EOF
then
    echo "BENCH_profile.json failed schema check" >&2
    exit 1
fi
echo "Wrote $repo_root/BENCH_profile.json" >&2

# --- Debug-server end-to-end smoke -----------------------------------
# Start the demo sim with its z-page server, scrape all five endpoints
# over real HTTP, and validate /metrics against a minimal Prometheus
# text-format grammar. Fails loudly if any endpoint breaks.
if [ -x "$build_dir/examples/cluster_demo" ] && command -v curl >/dev/null; then
    echo "Running debug-server smoke test ..." >&2
    demo_log=$(mktemp)
    "$build_dir/examples/cluster_demo" --duration 1800 --realtime-ms 20 \
        > "$demo_log" 2>&1 &
    demo_pid=$!
    trap 'kill "$demo_pid" 2>/dev/null || true' EXIT

    # The demo prints DEBUG_SERVER_PORT=NNNN once the server is up.
    port=""
    tries=0
    while [ -z "$port" ] && [ "$tries" -lt 50 ]; do
        port=$(sed -n 's/^DEBUG_SERVER_PORT=\([0-9]*\)$/\1/p' "$demo_log")
        [ -n "$port" ] || { tries=$((tries + 1)); sleep 0.1; }
    done
    [ -n "$port" ] || { echo "demo never printed its port" >&2; exit 1; }

    for page in healthz varz metrics tracez statusz profilez; do
        if ! curl -sf "http://127.0.0.1:$port/$page" > /dev/null; then
            echo "endpoint /$page failed" >&2
            exit 1
        fi
    done

    # Minimal Prometheus text-format check: every non-comment line is
    # `name[{labels}] value` with a legal name, every family has a
    # TYPE line before its samples.
    curl -sf "http://127.0.0.1:$port/metrics" | awk '
        /^#[ ]TYPE[ ]/ { types[$3] = $4; next }
        /^#/ { next }
        /^$/ { next }
        {
            name = $1
            sub(/\{.*/, "", name)
            if (name !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) {
                print "illegal metric name: " name > "/dev/stderr"
                exit 1
            }
            fam = name
            sub(/_(bucket|sum|count)$/, "", fam)
            if (!(name in types) && !(fam in types)) {
                print "sample before TYPE: " name > "/dev/stderr"
                exit 1
            }
            if ($NF !~ /^[-+0-9.eE]+$|^[+-]Inf$|^NaN$/) {
                print "bad sample value: " $0 > "/dev/stderr"
                exit 1
            }
        }' || { echo "/metrics failed Prometheus validation" >&2; exit 1; }

    # /statusz counts must reconcile with the fleet size (cluster row:
    # "cluster  H ok  D deg  Q quar  R rep", fleet = 4 hosts x 10).
    statusz=$(curl -sf "http://127.0.0.1:$port/statusz")
    echo "$statusz" | awk '
        $1 == "cluster" {
            if ($2 + $4 + $6 + $8 != 40) {
                print "statusz counts do not partition the fleet" \
                    > "/dev/stderr"
                exit 1
            }
            found = 1
        }
        END { exit found ? 0 : 1 }' \
        || { echo "/statusz reconciliation failed" >&2; exit 1; }

    kill "$demo_pid" 2>/dev/null || true
    wait "$demo_pid" 2>/dev/null || true
    trap - EXIT
    rm -f "$demo_log"
    echo "Debug-server smoke test passed (port $port)" >&2
else
    echo "Skipping debug-server smoke (no cluster_demo or curl)" >&2
fi
