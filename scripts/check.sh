#!/usr/bin/env bash
# Full verification: the tier-1 suite in Release, plus the kernel
# differential tests under AddressSanitizer+UBSan in Debug (the batched
# kernels do unaligned loads and tail handling worth checking hard; the
# Dynamic HA-Index suites, its width sweep and the Deserialize fuzz run
# there too, for the arena's offset arithmetic and the layout pass, and
# so do the batch query suites (BatchApi, IndexKnn, ConcurrentIndex*),
# whose default loops write into reused responses and whose snapshot
# plan compacts ids and distances in place, and so do Serde.* and
# MrJoin*, for the presized fixed-width writes, the pair-block
# encode/decode and the hostile-record decoder checks, and so does
# SpectralHashing.*, whose Hash kernel indexes stack accumulators by
# num_pcs and dir_ and casts a double to an integer), plus the MapReduce
# attempt/speculation layer under ThreadSanitizer (backup attempts,
# cancel tokens, and the commit race are cross-thread protocols).
#
# Each sanitizer also re-runs the MapReduce and fault-tolerance suites
# with HAMMING_SHUFFLE_BUDGET=65536, which forces every job through the
# external shuffle's spill/merge paths (file I/O, CRC framing, streaming
# merge) under a tight 64 KiB memory budget.
#
# The observability step runs one traced + metered job (bench/trace_demo)
# and validates both artifacts: the Chrome trace must parse as JSON and
# carry name/ph/ts/pid/tid on every event with spans on more than one
# node process, and the metrics snapshot must hold the per-reducer load
# histogram with a sane skew coefficient. The TSan pass also covers the
# metrics shard-merge and trace-collector suites (concurrent recording).
#
# The serving step runs the query-engine load generator in smoke mode
# (bench/bench_serving --smoke: closed- and open-loop over batched and
# unbatched engine configs) and validates the JSON artifact: it must
# carry the host block every bench writes (cores, CPU model, kernel tier,
# compiler, build type, git sha), every latency row must carry ordered
# p50/p99/p999, each config must report a positive max-sustainable rate,
# and the batched/unbatched speedup summary must be present. Every
# closed-loop, open-loop and churn row must account for each request it
# attempted: none failed, and completed + rejected == attempted. The
# smoke run also drives the mixed insert/delete/query churn workload
# against a ConcurrentHAIndex, and
# the validator requires the churn row: a positive mutation rate,
# published epochs, and ordered percentiles, proving reads-during-writes
# actually ran. The TSan pass also runs the Serving* suites (worker
# pool, batcher, admission control under concurrent clients) plus the
# epoch/snapshot suites (ConcurrentIndex*, ChurnStress*, DynamicHAAudit*:
# snapshot immutability, N-reader/1-mutator churn, swap-remove
# invariants) — the data-race gate for the concurrent index.
#
# The tier-1 ctest run includes the repository checker
# (tools/analyze/analyze.py, registered by the root CMakeLists): its
# --self-test (every seeded fixture must fire, the negative test), then
# the tree against build/compile_commands.json, which must be clean
# modulo tools/analyze/baseline.json (which ships empty; entries carry
# expiry dates).
#
# The clang-tidy stage runs clang-tidy over src/ when a clang-tidy binary
# is on PATH. The sweep is blocking: .clang-tidy promotes every enabled
# family to an error, so any finding fails this script.
#
# The fuzz-smoke stage builds the fuzz harnesses (fuzz/) and replays
# their seed corpora plus a fixed number of deterministic mutations;
# same inputs every run, so it is a gate, not a campaign. fuzz_vertical
# differentially checks the bit-plane vertical kernels against the
# horizontal layout, a fuzz-chosen batch of queries in one shared plane
# scan against one-query scans, the same over the codes in prefix order
# (where the common-bit summaries skip blocks) and through churn, the
# summaries' soundness after every phase, and the CodeSet upkeep (fill,
# churn across the plane copy's floor, range entries) against a scalar
# loop. The ASan+UBSan filter's VerticalStore/Kernels/CodeSet/BatchApi
# suites hold the summary, prefix-order and scan-vs-brute-force tests.
#
# The perfbench smoke stage builds the repository benchmark (perfbench/,
# into .bench_build/) and runs every workload at toy size, traced and
# untraced (python3 perfbench/run.py --smoke). It fails unless every run
# is correct against the benchmark's own brute-force oracle with zero
# failed operations; scan_serve's 16,384-code smoke store is past the
# plane copy's floor, so its h = 3 queries exercise the shared plane
# scan end to end.
#
# The ubsan stage builds with -fsanitize=undefined alone (build-ubsan/,
# HAMMING_UBSAN=ON, trap-on-first-report) and runs the FULL ctest
# suite — the combined ASan+UBSan stage only covers the kernel/shuffle
# test filter, and shift/overflow bugs in the bit-sliced kernels are
# exactly what a whole-suite UBSan pass exists to catch.
#
# Usage: scripts/check.sh [--skip-asan] [--skip-tsan] [--skip-ubsan]
#                         [--skip-fuzz]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_ASAN=0
SKIP_TSAN=0
SKIP_UBSAN=0
SKIP_FUZZ=0
for arg in "$@"; do
  [[ "$arg" == "--skip-asan" ]] && SKIP_ASAN=1
  [[ "$arg" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$arg" == "--skip-ubsan" ]] && SKIP_UBSAN=1
  [[ "$arg" == "--skip-fuzz" ]] && SKIP_FUZZ=1
done

echo "==> tier-1: configure + build + ctest, checker included (build/)"
cmake -B build -S . -DHAMMING_FUZZERS=ON >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> clang-tidy (.clang-tidy profile, blocking) over src/"
  find src -name '*.cc' -print0 | xargs -0 -P "$(nproc)" -n 8 \
    clang-tidy -p build --quiet
else
  echo "==> clang-tidy not on PATH; skipping tidy sweep"
fi

if [[ "$SKIP_FUZZ" == "1" ]]; then
  echo "==> skipping fuzz-smoke stage (--skip-fuzz)"
else
  echo "==> fuzz-smoke: seed corpora + 500 deterministic mutations each"
  ./build/fuzz/fuzz_serde fuzz/corpus/serde -mutate=500
  ./build/fuzz/fuzz_spill fuzz/corpus/spill -mutate=500
  ./build/fuzz/fuzz_json  fuzz/corpus/json  -mutate=500
  ./build/fuzz/fuzz_vertical fuzz/corpus/vertical -mutate=500
fi

echo "==> observability: traced job + JSON artifact validation"
OBS_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR"' EXIT
./build/bench/trace_demo "$OBS_DIR/trace.json" "$OBS_DIR/metrics.json"
python3 - "$OBS_DIR/trace.json" "$OBS_DIR/metrics.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
for e in events:
    for field in ("name", "ph", "pid", "tid"):
        assert field in e, f"trace event missing {field!r}: {e}"
    if e["ph"] != "M":  # metadata records carry no timestamp
        assert "ts" in e, f"trace event missing 'ts': {e}"
assert any(e["ph"] == "X" for e in events), "no complete spans"
assert len({e["pid"] for e in events}) > 1, "no per-node processes"
with open(sys.argv[2]) as f:
    metrics = json.load(f)
for section in ("counters", "gauges", "histograms"):
    assert section in metrics, f"metrics missing {section!r}"
load = metrics["histograms"]["mr.reduce_input_records"]
assert load["count"] > 0 and load["skew_max_over_mean"] >= 1.0
print(f"trace OK ({len(events)} events), metrics OK "
      f"({len(metrics['histograms'])} histograms)")
PY

echo "==> serving: load-generator smoke + latency artifact validation"
./build/bench/bench_serving --smoke --out="$OBS_DIR/serving.json"
python3 - "$OBS_DIR/serving.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
host = report.get("host")
assert host, "serving report has no host block"
for field in ("cores", "cpu_model", "kernel_tier", "compiler", "build_type",
              "git_sha"):
    assert field in host, f"host block missing {field!r}: {host}"
assert host["cores"] > 0, f"host block reports no cores: {host}"
rows = report["rows"]
assert rows, "serving report has no rows"
latency_rows = [r for r in rows if r["section"] in ("closed_loop", "open_loop")]
assert latency_rows, "no latency rows"
for r in latency_rows:
    for field in ("qps", "p50_us", "p99_us", "p999_us"):
        assert field in r, f"latency row missing {field!r}: {r}"
    assert r["p50_us"] <= r["p99_us"] <= r["p999_us"], f"percentiles out of order: {r}"
sustainable = [r for r in rows if r["section"] == "max_sustainable"]
assert len(sustainable) == 2, "expected one max_sustainable row per engine config"
assert all(r["max_sustainable_qps"] > 0 for r in sustainable), "no sustainable rate found"
for r in rows:
    if r["section"] in ("closed_loop", "open_loop", "churn"):
        assert r["failed"] == 0, f"requests failed: {r}"
        assert r["completed"] + r["rejected"] == r["attempted"], \
            f"requests unaccounted for: {r}"
speedup = [r for r in rows if r["section"] == "summary"]
assert speedup and "batched_over_unbatched" in speedup[0], "missing speedup summary"
churn = [r for r in rows if r["section"] == "churn"]
assert churn, "missing churn row (mixed insert/delete/query workload)"
for r in churn:
    for field in ("threads", "insert_fraction", "delete_fraction", "inserts",
                  "deletes", "mutations_per_sec", "epochs_published",
                  "completed", "qps", "p50_us", "p99_us", "p999_us"):
        assert field in r, f"churn row missing {field!r}: {r}"
    assert r["mutations_per_sec"] > 0, f"churn ran no mutations: {r}"
    assert r["epochs_published"] > 0, f"churn published no epochs: {r}"
    assert r["completed"] > 0, f"churn completed no queries: {r}"
    assert r["p50_us"] <= r["p99_us"] <= r["p999_us"], f"percentiles out of order: {r}"
telemetry = [r for r in rows if r["section"] == "telemetry"]
assert {r["config"] for r in telemetry} == {"telemetry_off", "telemetry_on"}, \
    "missing telemetry A/B rows"
overhead = [r for r in rows if r["section"] == "summary"
            and r.get("config") == "telemetry_overhead"]
assert overhead and "overhead_pct" in overhead[0], "missing telemetry overhead"
slow_rows = [r for r in rows if r["section"] == "slow_query"]
assert slow_rows, "missing slow_query exemplar rows"
for r in slow_rows:
    assert r["e2e_us"] >= r["service_us"] >= 0, f"bad exemplar latencies: {r}"
totals = [r for r in rows if r["section"] == "telemetry_totals"]
assert totals and totals[0]["queries_logged"] > 0, "query log recorded nothing"
assert totals[0]["windows_closed"] > 0, "time series closed no windows"
assert totals[0]["trace_events"] > 0, "trace collected no events"
print(f"serving OK ({len(latency_rows)} latency rows, "
      f"batched/unbatched {speedup[0]['batched_over_unbatched']:.2f}x, "
      f"churn {churn[0]['mutations_per_sec']:.0f} mut/s over "
      f"{churn[0]['epochs_published']:.0f} epochs, "
      f"telemetry overhead {overhead[0]['overhead_pct']:.2f}%)")
PY

echo "==> serving: telemetry artifacts (windows, exemplars, request spans)"
# The report tool doubles as the schema check: it exits non-zero on
# malformed JSONL, missing fields, or out-of-order percentiles.
python3 tools/telemetry_report/telemetry_report.py \
  --timeseries="$OBS_DIR/serving_timeseries.jsonl" \
  --querylog="$OBS_DIR/serving_querylog.jsonl" --top=3
python3 - "$OBS_DIR/serving_trace.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
serving_pids = {e["pid"] for e in events
                if e["ph"] == "M" and e.get("name") == "process_name"
                and e.get("args", {}).get("name") == "serving"}
assert serving_pids, "no auxiliary serving process in trace"
workers = [e for e in events if e["ph"] == "M" and e.get("name") == "thread_name"
           and e["pid"] in serving_pids]
assert workers, "serving process has no named worker lanes"
reqs = [e for e in events if e.get("cat") == "request" and e["ph"] == "X"]
assert reqs, "no per-request spans in trace"
phases = {e["name"] for e in events if e.get("cat") == "request.phase"}
for needed in ("queue", "batch_form", "epoch_pin", "kernel", "respond"):
    assert needed in phases, f"missing request phase span {needed!r}: {phases}"
print(f"telemetry trace OK ({len(reqs)} request spans, "
      f"{len(workers)} worker lanes, phases: {sorted(phases)})")
PY

echo "==> perfbench: every workload at toy size, traced and untraced"
python3 perfbench/run.py --smoke

if [[ "$SKIP_ASAN" == "1" ]]; then
  echo "==> skipping ASan pass (--skip-asan)"
else
  echo "==> sanitizers: Debug + ASan/UBSan kernel differential (build-asan/)"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DHAMMING_SANITIZE=ON \
    >/dev/null
  cmake --build build-asan -j "$(nproc)" --target hamming_tests
  ./build-asan/tests/hamming_tests \
    --gtest_filter='CodeStore.*:CodeSet.*:VerticalStore.*:Kernels.*:LocalCounters.*:FuzzCorpus.*:StorageTest.SpillFuzz*:StorageTest.*Deserialize*:DynamicHAAudit.*:DynamicHAIndex.*:Widths/DynamicHAWidthTest.*:BatchApi.*:IndexKnn.*:ConcurrentIndex*:Serde.*:MrJoin*:SpectralHashing.*'
  echo "==> ASan: MapReduce + external shuffle under a 64 KiB budget"
  HAMMING_SHUFFLE_BUDGET=65536 ./build-asan/tests/hamming_tests \
    --gtest_filter='MapReduce*:FaultTolerance*:PlanFaultTolerance*:Shuffle*'
fi

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "==> skipping TSan pass (--skip-tsan)"
else
  echo "==> sanitizers: Debug + TSan over the MapReduce runtime (build-tsan/)"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DHAMMING_TSAN=ON \
    >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target hamming_tests
  ./build-tsan/tests/hamming_tests --gtest_filter=\
'MapReduce*:FaultTolerance*:PlanFaultTolerance*:CancelToken*:ThreadPool*:Concurrency*:Metrics*:TraceJson*:VerticalStore*:Kernels.VerticalScanSharedAcrossThreads:CodeSet.*:Serving*:ConcurrentIndex*:ChurnStress*:DynamicHAAudit*:Telemetry*'
  echo "==> TSan: MapReduce + external shuffle under a 64 KiB budget"
  HAMMING_SHUFFLE_BUDGET=65536 ./build-tsan/tests/hamming_tests --gtest_filter=\
'MapReduce*:FaultTolerance*:PlanFaultTolerance*:Shuffle*'
fi

if [[ "$SKIP_UBSAN" == "1" ]]; then
  echo "==> skipping UBSan pass (--skip-ubsan)"
else
  echo "==> sanitizers: Debug + standalone UBSan, full suite (build-ubsan/)"
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=Debug -DHAMMING_UBSAN=ON \
    >/dev/null
  cmake --build build-ubsan -j "$(nproc)"
  (cd build-ubsan && ctest --output-on-failure -j "$(nproc)")
fi

echo "==> all checks passed"
