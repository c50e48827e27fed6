#!/usr/bin/env bash
# The full CI gate, in the order a reviewer wants failures surfaced:
#
#   1. tier-1 verify: configure + build + the whole ctest suite, then the
#      observability label on its own (the obs plane must pass standalone,
#      not only interleaved with the suite);
#   2. the profiling-plane smoke: boot a live engine, pull a 2 s CPU
#      profile over /profile/cpu, and assert the folded output is real
#      (>= 100 deduped stacks, >= 90% of samples stage-attributed);
#   3. the `durable` label on its own (torn-tail recovery sweeps, snapshot
#      round-trips, and the kill-mid-stream SIGKILL recovery test must pass
#      standalone, not only interleaved with the suite);
#   4. an AddressSanitizer+UBSan build running the `itemcf`, `query`,
#      `store`, `topo`, `tstorm`, `engine` and `examples` labels (the
#      raw-memory flat tables, arena scratch, and SoA TopK of DESIGN.md §15, the
#      planned-read query path of §11, the store's run loop, WAL and
#      replication of §10/§14 — `store` includes durable_test — the
#      byte-string table under the MDB/RDB/FDB engines and the Combiner of
#      §16, in flat_table_test, the bolts' write path of §10: the Combiner
#      and the write-behind StoreCache, in topo_test, parity_test and
#      query_batch_test, the tuple runs of §17, whose envelope storage is
#      recycled by hand, in tstorm_test, and the engine end to end in
#      engine_test: every bolt, materialized results, pruning and
#      ProcessFromAccess over TDStore, and the six examples/ binaries,
#      each of which must exit 0: video_site's store-backed RecommendCf,
#      quickstart's hybrid, operations' full deployment and mirror);
#   5. a ThreadSanitizer build running the `concurrent` and `topo` labels
#      (sharded executor, striped histogram/tracer, batch clients,
#      single-flight, MDB readers against a writer on the §16 table, the
#      tstorm task threads and spout-open barrier, and the store-backed
#      path: bolts over TDStore in topo_test and parity_test).
#
#   scripts/ci_verify.sh [build-dir] [tsan-build-dir] [asan-build-dir]
#
# Every build runs `nproc` compile jobs, never an unbounded -j.
#
# Env:
#   TR_SKIP_ASAN=1   skip step 4 (e.g. on hosts without ASan runtime)
#   TR_SKIP_TSAN=1   skip step 5 (e.g. on hosts without TSan runtime)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
tsan_dir="${2:-$repo_root/build-tsan}"
asan_dir="${3:-$repo_root/build-asan}"

echo "=== tier-1: build + full suite + obs label ==="
cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)"
(cd "$build_dir" && ctest --output-on-failure -j "$(nproc)")
(cd "$build_dir" && ctest -L obs --output-on-failure)

echo "=== profiler smoke: live engine, 2 s folded profile ==="
"$build_dir/tools/profile_smoke"

echo "=== durable: WAL/snapshot recovery incl. kill-mid-stream ==="
(cd "$build_dir" && ctest -L durable --output-on-failure)

if [[ "${TR_SKIP_ASAN:-0}" == "1" ]]; then
  echo "=== asan: skipped (TR_SKIP_ASAN=1) ==="
else
  echo "=== asan: itemcf + query + store + topo + tstorm + engine + examples labels under AddressSanitizer+UBSan ==="
  cmake -B "$asan_dir" -S "$repo_root" -DTR_SANITIZE_ADDRESS=ON
  cmake --build "$asan_dir" -j "$(nproc)"
  (cd "$asan_dir" && ctest -L 'itemcf|query|store|topo|tstorm|engine|examples' --output-on-failure)
fi

if [[ "${TR_SKIP_TSAN:-0}" == "1" ]]; then
  echo "=== tsan: skipped (TR_SKIP_TSAN=1) ==="
  exit 0
fi

echo "=== tsan: concurrent + topo labels under ThreadSanitizer ==="
cmake -B "$tsan_dir" -S "$repo_root" -DTR_SANITIZE_THREAD=ON
cmake --build "$tsan_dir" -j "$(nproc)"
(cd "$tsan_dir" && ctest -L 'concurrent|topo' --output-on-failure)

echo "ci_verify: all gates passed"
