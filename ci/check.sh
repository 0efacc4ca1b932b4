#!/usr/bin/env bash
# Staged tier-1 gate. Run from the repo root:
#   ci/check.sh [jobs]             run every stage
#   ci/check.sh --stage N [jobs]   run exactly stage N (assumes earlier
#                                  stages' artifacts exist, e.g. build/)
#   ci/check.sh --from N [jobs]    run stage N and everything after it
#   ci/check.sh --list             print the stage table and exit
#
# Timings for the stages that actually ran land in ci/stage_times.json
# (machine-readable, written even when a stage fails) so gate cost can be
# tracked over time and the slow stage named from CI logs alone.
#
# Stages:
#   1 build          normal config, warnings-as-errors
#   2 test           ctest, normal config
#   3 build-asan     ASan+UBSan config, warnings-as-errors
#   4 test-asan      ctest under ASan+UBSan with LeakSanitizer ENABLED
#   5 chaos-smoke    failover + migration matrices under LSan, migration bench + trace
#   6 examples-smoke quickstart + mapreduce_shuffle run end-to-end (timed)
#   7 bench-smoke    every sim-clock bench --json + digests of those and 3 traces, perfbench checks and digests
#   8 trace-validate failover + socket-stream traces vs expected timelines
#   9 perf-gate      ci/perf_gate.py vs the committed baselines
#  10 coverage       --coverage -O0 build + ctest; never-run src/ lines vs baseline
set -euo pipefail

cd "$(dirname "$0")/.."

stage_table() {
  grep -E '^# +[0-9]+ [a-z]' "$0" | sed -E 's/^# +//'
}

only=0
from=1
jobs=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --stage) only="$2"; shift 2 ;;
    --from)  from="$2"; shift 2 ;;
    --list)  stage_table; exit 0 ;;
    -h|--help) sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) jobs="$1"; shift ;;
  esac
done
jobs="${jobs:-$(nproc)}"

# ---------------------------------------------------------------- timings

times_names=()
times_secs=()
times_status=()

write_times() {
  local out="ci/stage_times.json"
  {
    echo '{'
    echo '  "stages": ['
    local i last=$(( ${#times_names[@]} - 1 ))
    for i in "${!times_names[@]}"; do
      local comma=','
      [[ "$i" -eq "$last" ]] && comma=''
      echo "    {\"stage\": \"${times_names[$i]}\"," \
           "\"seconds\": ${times_secs[$i]}," \
           "\"status\": \"${times_status[$i]}\"}$comma"
    done
    echo '  ]'
    echo '}'
  } >"$out"
}

run_stage() {  # run_stage NUMBER NAME FUNCTION
  local n="$1" name="$2" fn="$3"
  if [[ "$only" -ne 0 ]]; then
    [[ "$n" -eq "$only" ]] || return 0
  elif [[ "$n" -lt "$from" ]]; then
    return 0
  fi
  echo "== stage $n: $name"
  local t0 t1 rc
  t0=$(date +%s)
  # The stage runs in a subshell under set -e, outside any ||/&&/if
  # context (which would switch set -e off inside it), so its first failing
  # command fails the stage.
  set +e
  ( set -e; "$fn" )
  rc=$?
  set -e
  t1=$(date +%s)
  times_names+=("$name")
  times_secs+=($((t1 - t0)))
  if [[ "$rc" -ne 0 ]]; then
    times_status+=("failed")
    write_times
    echo "== stage $n ($name) FAILED after $((t1 - t0))s" >&2
    exit "$rc"
  fi
  times_status+=("ok")
  echo "   (stage $n took $((t1 - t0))s)"
}

# ----------------------------------------------------------------- stages

stage_build() {
  cmake -B build -S . -DFREEFLOW_WERROR=ON >/dev/null
  cmake --build build -j "$jobs"
}

stage_test() {
  ctest --test-dir build --output-on-failure -j "$jobs"
}

stage_build_asan() {
  cmake -B build-asan -S . -DFREEFLOW_SANITIZE=ON -DFREEFLOW_WERROR=ON >/dev/null
  cmake --build build-asan -j "$jobs"
}

stage_test_asan() {
  # No detect_leaks=0 and no suppression file: the explicit teardown protocol
  # keeps steady-state ownership a DAG, so every test must exit leak-clean.
  ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

stage_chaos_smoke() {
  # The fault matrix tears lanes down mid-transfer; running it under ASan+LSan
  # proves failover never leaks or double-frees channel/trunk state. It already
  # ran in stage 4 alongside everything else — this stage re-runs it alone so a
  # chaos regression is named by the gate that owns it.
  ./build-asan/tests/test_faults --gtest_brief=1
  # Same treatment for the migration matrix: planned moves racing NIC death,
  # quiesce-deadline expiry, and proactive partition evacuation under
  # ASan+LSan. The bench then ping-pongs a container under live verified
  # traffic and must show the full coordinated protocol in its trace.
  ./build-asan/tests/test_migration --gtest_brief=1
  ./build/bench/bench_live_migration --json build/BENCH_live_migration.json \
    --trace build/TRACE_live_migration.json
  python3 ci/validate_trace.py build/TRACE_live_migration.json \
    --expect "B:migration,i:quiesce,i:capture,i:transfer,i:resume,E:migration"
  # Tenant-isolation matrix under ASan+LSan: WDRR fairness, cross-tenant shm
  # denial, and the overlapping degrade/restore and trust-revocation
  # regressions all tear down mid-flight state worth leak-checking.
  ./build-asan/tests/test_fabric --gtest_brief=1 --gtest_filter='*Tenant*:*Wdrr*'
  ./build-asan/tests/test_shm --gtest_brief=1 --gtest_filter='*Tenant*:*Accounting*'
}

stage_examples_smoke() {
  # The examples exercise the full user-facing path, including the
  # bidirectional trunk-setup schedule that mapreduce_shuffle's 3x3 flow
  # matrix produces; a hang or an abort here is a regression even if every
  # unit test passes. The stage timer doubles as a coarse wall-clock guard.
  ./build/examples/quickstart >/dev/null
  ./build/examples/mapreduce_shuffle >/dev/null
}

stage_bench_smoke() {
  ./build/bench/bench_sim_core --json build/BENCH_sim_core.json
  ./build/bench/bench_connect_storm --json build/BENCH_connect_storm.json
  ./build/bench/bench_decision_storm --json build/BENCH_decision_storm.json
  # The stream bench exports its failover-phase trace here so the
  # trace-validate stage can assert the splice timeline without re-running.
  ./build/bench/bench_socket_stream --json build/BENCH_socket_stream.json \
    --trace build/TRACE_socket_stream.json
  ./build/bench/bench_tenant_gateway --json build/BENCH_tenant_gateway.json
  # The failover matrix's report and Chrome trace, checked by trace-validate.
  ./build/bench/bench_failover --json build/BENCH_failover.json \
    --trace build/TRACE_failover.json
  # The paper-figure benches, quietly: only their --json is checked here.
  local bench
  for bench in ablations app_workloads control_plane decision_matrix \
      fig1_three_modes host_vs_bridge inter_host intra_cpu intra_latency \
      intra_throughput latency_breakdown pair_scaling vnic_overhead; do
    ./build/bench/bench_"$bench" --json build/BENCH_"$bench".json >/dev/null
  done
  # Every bench but bench_sim_core runs on the sim clock alone: its --json
  # (live_migration's from chaos-smoke) and the three gated traces must be
  # byte-identical to the pins in ci/bench_digests.json. The check names
  # every output that moved; a change that moves the sim clock on purpose
  # rewrites the pins with --write and says why in CHANGES.md.
  python3 ci/check_bench_digests.py build ci/bench_digests.json
  # perfbench's own checks — byte-exact echoes, zero drops/retransmits,
  # planned transports and clean closes over shm, rdma, dpdk, tcp-host and
  # overlay — must hold: the result line (last on stdout) must read
  # "correct": true with "failed": 0. Each workload's seed-1 fingerprint
  # digest must also equal the one pinned in ci/perfbench_digests.json, so
  # a host-side change that moves the sim clock fails here.
  local workload out
  for workload in rpc churn bulk; do
    out=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 1 --trace 0) || return 1
    python3 ci/check_perfbench.py "$workload" ci/perfbench_digests.json <<<"$out"
  done
}

stage_trace_validate() {
  # The failover matrix's trace (exported by bench-smoke) must be well-formed
  # and show the full kill-rdma recovery timeline. The bench's retransmit
  # and blackout figures read the conduits' registry counters, the same
  # ones its --json telemetry snapshot carries.
  python3 ci/validate_trace.py build/TRACE_failover.json \
    --expect "i:rdma_down,B:failover,i:mark_stale,i:rebind,i:retransmit,E:failover,i:rdma_up,i:re-upgrade"
  python3 -c "import json; json.load(open('build/BENCH_failover.json'))"
  # The stream adapter's trace (exported by bench-smoke) must show both
  # timelines: the adapter's upgrade -> fallback -> re-upgrade dance, and the
  # conduit-level failover it rides on. Two --expect flags, one export.
  python3 ci/validate_trace.py build/TRACE_socket_stream.json \
    --expect "i:stream_upgrade,i:rdma_down,i:stream_fallback,i:rdma_up,i:stream_upgrade" \
    --expect "i:rdma_down,B:failover,i:mark_stale,i:rebind,i:retransmit,E:failover"
}

stage_perf_gate() {
  python3 ci/perf_gate.py build/BENCH_sim_core.json \
    bench/baselines/BENCH_sim_core.json
  python3 ci/perf_gate.py build/BENCH_connect_storm.json \
    bench/baselines/BENCH_connect_storm.json
  python3 ci/perf_gate.py build/BENCH_decision_storm.json \
    bench/baselines/BENCH_decision_storm.json
  python3 ci/perf_gate.py build/BENCH_socket_stream.json \
    bench/baselines/BENCH_socket_stream.json
  python3 ci/perf_gate.py build/BENCH_live_migration.json \
    bench/baselines/BENCH_live_migration.json
  python3 ci/perf_gate.py build/BENCH_tenant_gateway.json \
    bench/baselines/BENCH_tenant_gateway.json
}

stage_coverage() {
  # Line coverage of src/ under the whole ctest suite, in a build of its own
  # (-O0 so each source line maps to its own code). The report prints every
  # module's never-run lines and fails if their total grows past
  # ci/coverage_baseline.json: new code comes with a test that runs it, or
  # it goes. After deleting dead code or adding tests, lower the baseline
  # with --write-baseline.
  cmake -B build-cov -S . -DFREEFLOW_WERROR=ON -DCMAKE_BUILD_TYPE=Debug \
    "-DCMAKE_CXX_FLAGS=--coverage -O0" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
  cmake --build build-cov -j "$jobs"
  # Test discovery runs every test binary at build time: count from zero.
  find build-cov -name '*.gcda' -delete
  ctest --test-dir build-cov --output-on-failure -j "$jobs"
  python3 ci/coverage_report.py build-cov ci/coverage_baseline.json
}

# ------------------------------------------------------------------ drive

run_stage 1 build          stage_build
run_stage 2 test           stage_test
run_stage 3 build-asan     stage_build_asan
run_stage 4 test-asan      stage_test_asan
run_stage 5 chaos-smoke    stage_chaos_smoke
run_stage 6 examples-smoke stage_examples_smoke
run_stage 7 bench-smoke    stage_bench_smoke
run_stage 8 trace-validate stage_trace_validate
run_stage 9 perf-gate      stage_perf_gate
run_stage 10 coverage      stage_coverage

write_times
echo "== all selected stages passed (timings: ci/stage_times.json)"
