#!/usr/bin/env bash
# CI gate: build everything with -Werror plus ASan+UBSan and run the full
# ctest suite. Equivalent to `cmake --preset ci && cmake --build --preset
# ci && ctest --preset ci`, spelled out so it also works without preset
# support.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-ci}
JOBS=${JOBS:-$(nproc)}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRASQL_WERROR=ON \
  -DRASQL_ENABLE_ASAN=ON \
  -DRASQL_ENABLE_UBSAN=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# Stage-graph verification gate (DESIGN.md §11): the whole suite again
# with the static verifier forced on, so every live Cluster submission and
# every local fixpoint plan is contract-checked even though this is a
# release (NDEBUG) build where verification defaults off. A regression
# that mis-declares slices or ownership aborts the offending test here.
RASQL_VERIFY_STAGES=1 \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# Benchmark output checks: a short run of every perfbench workload (its own
# Release build under .bench_build/) checks the local and distributed
# engines' answers against the BFS, SSSP and CC oracles and the grid
# closed form, and every cache hit against a cold execution. run.py exits
# non-zero when any check fails.
for workload in analytics-dist serve-read serve-write; do
  python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 3
done

# Batch-mode gate under ASan (DESIGN.md §13, §15): the vectorized kernels
# index raw chunk arrays through selection vectors and fill preallocated
# probe scratch — exactly the code ASan must see clean. The chunk-layout
# property suite, the randomized VecProgram-vs-oracle property suite and
# the batch-vs-row equality matrix run explicitly so the gate survives
# suite reorganizations.
"${BUILD_DIR}/tests/columnar_test"
"${BUILD_DIR}/tests/vec_program_test"
"${BUILD_DIR}/tests/morsel_test" --gtest_filter='*MorselMatrix*'

# Canonical-collect gate under ASan (DESIGN.md §16): the typed sort and
# k-way merge index KeyArrays columns by permutation and run position (the
# range merge from binary-searched cut positions), and the parallel
# Partition writes destinations through raw chunk offsets.
"${BUILD_DIR}/tests/canonical_collect_test"

# Typed data-plane gate under ASan (DESIGN.md §17): the group table probes
# its slot array by hash bits and indexes typed key columns by group, and
# the row-oracle suite drives every column shape through it.
"${BUILD_DIR}/tests/group_table_test"

# Parallel-runtime gate: TSan excludes ASan, so the work-stealing executor
# and the threaded fixpoint tests get their own build. Only the four test
# binaries that exercise real threads are built and run — a full TSan build
# of every bench would double CI time for no extra coverage.
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRASQL_ENABLE_TSAN=ON
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target runtime_test dist_test fixpoint_test morsel_test \
           columnar_test vec_program_test concurrency_test server_test \
           incremental_test canonical_collect_test group_table_test
"${TSAN_BUILD_DIR}/tests/runtime_test"
"${TSAN_BUILD_DIR}/tests/dist_test"
"${TSAN_BUILD_DIR}/tests/fixpoint_test"
"${TSAN_BUILD_DIR}/tests/morsel_test"

# Async-shuffle matrix under TSan: the pipelined map/reduce path releases
# reduce tasks from the publish of individual map slices, so the
# release/acquire pairing in SliceReadiness and the graph scheduler's
# countdowns are exactly what TSan must see clean. The filtered re-run is
# cheap and makes the gate explicit even if the suites above reorganize.
"${TSAN_BUILD_DIR}/tests/runtime_test" \
  --gtest_filter='*Graph*:*Async*:*async*'
"${TSAN_BUILD_DIR}/tests/dist_test" \
  --gtest_filter='*Pipelined*:*Slice*:*ShuffleChannel*'

# Local-fixpoint thread matrix under TSan: the partitioned local path runs
# per-partition semi-naive terms and per-branch naive candidates on the
# pool, at threads {1,2,8} in both modes (LocalFixpointParallelTest runs
# the full matrix internally), and every unit probes its plan's shared
# loop-invariant build side concurrently (DESIGN.md §18; the build-once
# test runs threads × morsel × batch). Filtered re-run for the same reason
# as above: the gate stays explicit even if the suite reorganizes.
"${TSAN_BUILD_DIR}/tests/fixpoint_test" \
  --gtest_filter='*LocalFixpointParallel*:*BuildsTheEdgeTableOnce*'

# Distributed step under TSan (DESIGN.md §18): concurrent morsel sub-tasks
# of one partition race to the per-partition invariant bind (a once_flag)
# and then probe it read-only, and view-reading binds count into an
# atomic. Filtered re-run so the gate stays explicit.
"${TSAN_BUILD_DIR}/tests/fixpoint_test" \
  --gtest_filter='*DistributedFixpoint*'

# Distributed base case under TSan (DESIGN.md §16): concurrent seed tasks
# run their ranges of the base branches on pipelines bound once on the
# driver and share them read-only — hash tables, compiled filters and
# projections — at threads {1, 8} with the async pipeline on and off.
# Filtered re-run so the gate stays explicit.
"${TSAN_BUILD_DIR}/tests/fixpoint_test" \
  --gtest_filter='*SeedSplit*'

# Canonical collect under TSan (DESIGN.md §16): partition tasks run on
# the pool between stages — each sorts its own SetRdd slice into its own
# run slot and frees that slice's hash state inside the task — the range
# merge's tasks read every run and each fills its own output part, and the
# parallel Partition hashes chunks and gathers partitions concurrently, at
# threads {1,2,8}.
"${TSAN_BUILD_DIR}/tests/canonical_collect_test"

# Typed data plane under TSan (DESIGN.md §17): every partition task owns its
# SetRDD group table, and TakeSortedRun moves the table's key arrays out
# inside the task; the suite runs the tables the engines share that way.
"${TSAN_BUILD_DIR}/tests/group_table_test"

# Morsel-split matrix under TSan: split sub-tasks write caller-owned slots
# concurrently with finalize tasks being released per partition, and the
# per-partition invariant bind runs under call_once from several threads.
# The determinism matrix (threads {1,2,8} × morsel on/off × batch on/off,
# local and distributed) is exactly the schedule TSan must see clean.
"${TSAN_BUILD_DIR}/tests/morsel_test" \
  --gtest_filter='*MorselMatrix*:*MorselSplit*'

# Batch-mode matrix under TSan: one BoundPipeline is shared by concurrent
# morsel tasks whose RunBatch keeps selection vectors and VecProgram
# scratch on each task's own stack; the batch-vs-row suites re-run against
# the TSan build to pin that contract.
"${TSAN_BUILD_DIR}/tests/columnar_test" --gtest_filter='*BatchPipeline*'
"${TSAN_BUILD_DIR}/tests/vec_program_test"

# Shared-context matrix under TSan (DESIGN.md §12): session threads
# interleaving reads with exclusive writers on one RaSqlContext, at engine
# threads {1,2,8}, plus the server's shared compute pool. This is the
# concurrency contract the query server runs on; the reader/writer lock,
# the version counters and the caches must all be clean under TSan.
"${TSAN_BUILD_DIR}/tests/concurrency_test"
"${TSAN_BUILD_DIR}/tests/server_test"

# Warm-start matrix under TSan (DESIGN.md §14): the warm path absorbs the
# retained converged state into every partition concurrently (ParallelFor
# locally, a dedicated warm-absorb stage with kReadShared warm slices on
# the cluster) before the semi-naive loop resumes — at threads {1,2,8}
# this is precisely the schedule TSan must see clean, and the server's
# refresh outcome races lookup against insert on the result cache.
"${TSAN_BUILD_DIR}/tests/incremental_test"
"${TSAN_BUILD_DIR}/tests/server_test" --gtest_filter='*Refresh*:*Incremental*'

# Serving smoke test (DESIGN.md §12): boot rasql_serverd on an ephemeral
# port, run a scripted client session through int64 edge arithmetic, the
# prepare/execute, query, cache-hit and typed-error paths, then shut down
# cleanly via SIGTERM and require exit code 0 (the sigwait path, not a
# crash). Repeated against
# the TSan build so the socket loops and executor handoffs run under the
# race detector too.
serving_smoke() {
  local build_dir=$1
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target rasql_serverd rasql_client
  local port_file
  port_file=$(mktemp)
  "${build_dir}/src/rasql_serverd" --gen-rmat=edge:64 --engine-threads=2 \
    --port-file="${port_file}" &
  local server_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "${port_file}" ]] && break
    sleep 0.1
  done
  local port
  port=$(cat "${port_file}")
  # INT64_MIN / -1 traps in hardware; the engine wraps it to INT64_MIN
  # (DESIGN.md §5). The server must answer it, then serve the rest of the
  # script.
  local wrap_out
  wrap_out=$("${build_dir}/src/rasql_client" --port="${port}" \
    "SELECT (Src - Src - 9223372036854775807 - 1) / -1 FROM edge WHERE Src = 0")
  grep -q "^RESULT" <<<"${wrap_out}"
  grep -q -x -- "-9223372036854775808" <<<"${wrap_out}"
  if tail -n +3 <<<"${wrap_out}" | grep -q -v -x -- "-9223372036854775808"; then
    echo "ci.sh: FAIL — INT64_MIN / -1 did not wrap to INT64_MIN" >&2
    exit 1
  fi
  # A FROM list past the parser's cap (Parser::kMaxExprDepth) is a typed
  # parse error, and the server keeps serving the rest of the script.
  local wide="SELECT t0.Src FROM edge t0"
  for i in $(seq 1 299); do wide+=", edge t${i}"; done
  local wide_out
  wide_out=$("${build_dir}/src/rasql_client" --port="${port}" "${wide}")
  grep -q "^ERROR PARSE: .*FROM list has more than 256" <<<"${wide_out}"
  local tc="WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT count(*) FROM tc"
  local out
  out=$("${build_dir}/src/rasql_client" --port="${port}" \
    "${tc}" "${tc}" \
    "prepare:SELECT Src, Dst FROM edge WHERE Src = 0" \
    "exec:1" "exec:1" \
    "SELEKT nonsense" \
    "exec:99")
  grep -q "RESULT cache_hit=0" <<<"${out}"
  grep -q "RESULT cache_hit=1" <<<"${out}"
  grep -q "PREPARED id=1" <<<"${out}"
  grep -q "ERROR PARSE" <<<"${out}"
  grep -q "ERROR UNKNOWN_STATEMENT" <<<"${out}"
  kill -TERM "${server_pid}"
  wait "${server_pid}"
  rm -f "${port_file}"
}
serving_smoke "${BUILD_DIR}"
serving_smoke "${TSAN_BUILD_DIR}"

# Incremental serving smoke test (DESIGN.md §14): boot one serverd with
# --incremental and one without over the same generated graph, apply the
# same INSERT to both, and require that the incremental server (a) does
# not serve the stale entry after the write (cache_hit=0: a refresh, the
# engine warm-starting internally), (b) memoizes the refreshed result
# (next run cache_hit=1), (c) reports refreshed=1 in its shutdown stats,
# and (d) produced byte-identical rows to the cold server's recompute.
incremental_smoke() {
  local build_dir=$1
  local tc="WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT Src, Dst FROM tc"
  local insert="INSERT INTO edge VALUES (0, 9001, 1.5), (9001, 9002, 0.5)"

  local warm_port_file cold_port_file warm_log
  warm_port_file=$(mktemp); cold_port_file=$(mktemp); warm_log=$(mktemp)
  "${build_dir}/src/rasql_serverd" --gen-rmat=edge:64 --engine-threads=2 \
    --incremental --port-file="${warm_port_file}" 2>"${warm_log}" &
  local warm_pid=$!
  "${build_dir}/src/rasql_serverd" --gen-rmat=edge:64 --engine-threads=2 \
    --port-file="${cold_port_file}" &
  local cold_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "${warm_port_file}" && -s "${cold_port_file}" ]] && break
    sleep 0.1
  done
  local warm_port cold_port
  warm_port=$(cat "${warm_port_file}")
  cold_port=$(cat "${cold_port_file}")
  local client="${build_dir}/src/rasql_client"

  local first_out warm_out hit_out cold_out
  first_out=$("${client}" --port="${warm_port}" "${tc}")
  grep -q "^RESULT cache_hit=0" <<<"${first_out}"
  "${client}" --port="${warm_port}" "${insert}" > /dev/null
  warm_out=$("${client}" --port="${warm_port}" "${tc}")
  grep -q "^RESULT cache_hit=0" <<<"${warm_out}"   # refresh, not stale
  hit_out=$("${client}" --port="${warm_port}" "${tc}")
  grep -q "^RESULT cache_hit=1" <<<"${hit_out}"

  "${client}" --port="${cold_port}" "${insert}" > /dev/null
  cold_out=$("${client}" --port="${cold_port}" "${tc}")
  # Row bytes (everything after the RESULT header) must be identical.
  diff <(tail -n +2 <<<"${warm_out}") <(tail -n +2 <<<"${cold_out}")

  kill -TERM "${warm_pid}" "${cold_pid}"
  wait "${warm_pid}" "${cold_pid}"
  grep -q "refreshed=1" "${warm_log}"
  rm -f "${warm_port_file}" "${cold_port_file}" "${warm_log}"
}
incremental_smoke "${BUILD_DIR}"
incremental_smoke "${TSAN_BUILD_DIR}"

# clang-tidy gate over src/ (.clang-tidy rule set). Skips with a notice
# when the container has no clang-tidy on PATH.
scripts/tidy.sh
