// Microbenchmark: the durable-state plane (DESIGN.md §14) — WAL append and
// replay rates, snapshot restore rate, and the gated wal_overhead_pct.
//
// The headline ops_per_sec is WAL REPLAY throughput (records/s through
// Wal::Open on a 1M-record log): recovery speed is what bounds restart
// downtime, so that is the number worth tracking. The 3% budget gate is
// wal_overhead_pct: the fraction of the per-action pipeline CPU the WAL
// adds in steady state. As in micro_parallel, a paired durable-vs-plain
// wall-clock diff cannot resolve a sub-percent cost on a shared box, so
// the overhead is assembled analytically from min-over-blocks pieces:
//
//   wal_overhead_pct = appends_per_action * per_append_cpu
//                      / per_action_pipeline_cpu * 100
//
// where appends_per_action is counted from the real engine's WAL counters
// over a real durable run, per_append_cpu is the min-over-blocks CPU of an
// AppendOps record sized like the run's average record (the same entry the
// engine logs through), and per_action_pipeline_cpu is the CPU of
// the full (non-durable) pipeline per action. Appends and pipeline CPU are
// paired PER BATCH — both grow together as store state accumulates — and
// the reported overhead is the worst batch, so a cheap early batch cannot
// dilute the steady-state number.
//
// Scale: TR_RECOVER_RECORDS overrides the 1M log size.

#include <ctime>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/tencentrec.h"
#include "tdstore/mdb_engine.h"
#include "tdstore/wal.h"

namespace {

using namespace tencentrec;
using core::ActionType;
using core::ItemId;
using core::UserAction;
using core::UserId;

double CpuMsNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double WallMsNow() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Cheapest per-op CPU cost across blocks (interference only ever ADDS
/// CPU time to a fixed instruction sequence, so the minimum converges on
/// the uninterfered cost).
double MinBlockMs(int blocks, int per_block, const std::function<void()>& op) {
  double best = 0.0;
  for (int b = 0; b < blocks; ++b) {
    const double c0 = CpuMsNow();
    for (int i = 0; i < per_block; ++i) op();
    const double one = (CpuMsNow() - c0) / per_block;
    if (b == 0 || one < best) best = one;
  }
  return best;
}

int64_t RecordsFromEnv(int64_t fallback) {
  const char* env = std::getenv("TR_RECOVER_RECORDS");
  if (env == nullptr) return fallback;
  const int64_t v = std::atoll(env);
  return v > 0 ? v : fallback;
}

std::vector<UserAction> MakeBatch(int b, int n) {
  Rng rng(static_cast<uint64_t>(90 + b));
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kPurchase};
  std::vector<UserAction> actions;
  actions.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    UserAction a;
    a.user = static_cast<UserId>(1 + rng.Uniform(200));
    a.item = static_cast<ItemId>(1 + rng.Uniform(100));
    a.action = kTypes[rng.Uniform(4)];
    a.timestamp = Seconds((b * n + i) * 2);
    actions.push_back(a);
  }
  return actions;
}

engine::TencentRec::Options EngineOptions(const std::string& durable_dir) {
  engine::TencentRec::Options options;
  options.app.app = "recover";
  options.app.parallelism = 2;
  options.app.linked_time = Days(30);
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  if (!durable_dir.empty()) {
    options.store.durability.enabled = true;
    options.store.durability.dir = durable_dir;
  }
  return options;
}

tdstore::WalRecord SampleRecord(int i) {
  tdstore::WalRecord rec;
  rec.instance_id = i % 8;
  rec.ops.push_back({false, "ic:recover:" + std::to_string(i % 4096) + ":" +
                                std::to_string(i % 128),
                     std::string(8, static_cast<char>('0' + i % 10))});
  return rec;
}

}  // namespace

int main() {
  const int64_t kRecords = RecordsFromEnv(1'000'000);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("micro_recover_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);

  // --- WAL append: group-commit policy, 1M representative records. -------
  const std::string wal_path = dir + "/bench.wal";
  double append_wall_ms;
  {
    tdstore::Wal wal;
    tdstore::Wal::Options wal_options;  // group commit, 2ms interval
    if (!wal.Open(wal_path, wal_options).ok()) return 1;
    const double t0 = WallMsNow();
    for (int64_t i = 0; i < kRecords; ++i) {
      if (!wal.Append(SampleRecord(static_cast<int>(i))).ok()) return 1;
    }
    append_wall_ms = WallMsNow() - t0;
    if (!wal.Close().ok()) return 1;
  }
  const double append_ops_per_sec =
      static_cast<double>(kRecords) / (append_wall_ms / 1e3);
  std::printf("wal append: %lld records in %.0f ms (%.0f records/s)\n",
              static_cast<long long>(kRecords), append_wall_ms,
              append_ops_per_sec);

  // --- WAL replay: reopen the log, which recovers every record. ----------
  constexpr int kReplayReps = 3;
  std::vector<double> replay_ms;
  for (int r = 0; r < kReplayReps; ++r) {
    const double t0 = WallMsNow();
    tdstore::Wal wal;
    if (!wal.Open(wal_path, {}).ok()) return 1;
    if (wal.recovered().size() != static_cast<size_t>(kRecords)) {
      std::fprintf(stderr, "replay recovered %zu of %lld records\n",
                   wal.recovered().size(), static_cast<long long>(kRecords));
      return 1;
    }
    replay_ms.push_back(WallMsNow() - t0);
  }
  const bench::BenchSummary summary =
      bench::Summarize(replay_ms, static_cast<double>(kRecords));
  std::printf("wal replay: %.0f records/s (p50 %.0f ms for %lld records)\n",
              summary.ops_per_sec, summary.p50_ms,
              static_cast<long long>(kRecords));

  // --- Snapshot restore rate. --------------------------------------------
  constexpr int kSnapKeys = 200'000;
  const std::string snap_path = dir + "/bench.snap";
  {
    tdstore::MdbEngine engine;
    for (int i = 0; i < kSnapKeys; ++i) {
      (void)engine.Put("sim:recover:" + std::to_string(i),
                       std::string(32, static_cast<char>('a' + i % 26)));
    }
    if (!engine.SnapshotTo(snap_path).ok()) return 1;
  }
  std::vector<double> restore_ms;
  for (int r = 0; r < kReplayReps; ++r) {
    tdstore::MdbEngine engine;
    const double t0 = WallMsNow();
    if (!engine.RestoreFrom(snap_path).ok()) return 1;
    restore_ms.push_back(WallMsNow() - t0);
  }
  const double restore_ops_per_sec =
      bench::Summarize(restore_ms, kSnapKeys).ops_per_sec;
  std::printf("snapshot restore: %.0f keys/s\n", restore_ops_per_sec);

  // --- wal_overhead_pct: the gated number. -------------------------------
  // (a) WAL appends per pipeline action, counted from the real engine.
  auto* appends = MetricRegistry::Default().GetCounter("store.wal.appends");
  auto* appended_bytes =
      MetricRegistry::Default().GetCounter("store.wal.appended_bytes");
  constexpr int kBatches = 6;
  constexpr int kPerBatch = 2000;
  int64_t actions_processed = 0;
  const uint64_t appends_before = appends->Value();
  const uint64_t bytes_before = appended_bytes->Value();
  std::vector<double> batch_appends;  // per-batch appends/action
  std::filesystem::create_directories(dir + "/engine");
  {
    auto durable = engine::TencentRec::Create(EngineOptions(dir + "/engine"));
    if (!durable.ok()) return 1;
    uint64_t last = appends->Value();
    for (int b = 0; b < kBatches; ++b) {
      if (!(*durable)->ProcessBatch(MakeBatch(b, kPerBatch)).ok()) return 1;
      actions_processed += kPerBatch;
      batch_appends.push_back(
          static_cast<double>(appends->Value() - last) / kPerBatch);
      last = appends->Value();
    }
  }
  const double appends_per_action =
      static_cast<double>(appends->Value() - appends_before) /
      static_cast<double>(actions_processed);
  const double bytes_per_action =
      static_cast<double>(appended_bytes->Value() - bytes_before) /
      static_cast<double>(actions_processed);

  // (b) CPU per append through AppendOps (the entry the engine actually
  // logs through), min over blocks. The op is sized so
  // the framed record matches the durable run's AVERAGE record — crc and
  // fwrite cost scale with bytes, so a toy record would understate.
  double per_append_cpu_ms;
  {
    tdstore::Wal wal;
    if (!wal.Open(dir + "/cost.wal", {}).ok()) return 1;
    const double avg_record_bytes =
        bytes_per_action / std::max(appends_per_action, 1e-9);
    const std::string key = "ic:recover:1234:77";
    // framed = frame(8) + record header(17) + op header(9) + key + value.
    const double pad = avg_record_bytes - 8 - 17 - 9 -
                       static_cast<double>(key.size());
    const std::string value(pad > 8 ? static_cast<size_t>(pad) : 8, 'v');
    const tdstore::WalOp op{false, key, value};
    int i = 0;
    per_append_cpu_ms = MinBlockMs(8, 2000, [&wal, &op, &i] {
      (void)wal.AppendOps(i++ % 8, &op, 1);
    });
  }

  // (c) CPU per pipeline action with durability off, per batch
  // (CLOCK_PROCESS_CPUTIME_ID sums all worker threads, the same basis the
  // append cost is measured on). Overhead is computed per batch against the
  // SAME batch's appends — both climb together as user histories grow — and
  // the gate takes the worst batch.
  double wal_overhead_pct = 0.0;
  double per_action_cpu_ms = 0.0;  // worst batch's, for the printout
  {
    auto plain = engine::TencentRec::Create(EngineOptions(""));
    if (!plain.ok()) return 1;
    for (int b = 0; b < kBatches; ++b) {
      auto batch = MakeBatch(b, kPerBatch);
      const double c0 = CpuMsNow();
      if (!(*plain)->ProcessBatch(batch).ok()) return 1;
      const double one = (CpuMsNow() - c0) / kPerBatch;
      const double pct =
          batch_appends[static_cast<size_t>(b)] * per_append_cpu_ms / one *
          100.0;
      if (pct > wal_overhead_pct) {
        wal_overhead_pct = pct;
        per_action_cpu_ms = one;
      }
    }
  }

  std::printf(
      "wal overhead: %.2f appends/action (run avg) x %.5f ms/append, worst "
      "batch %.4f ms/action = %.3f%% (budget 3%%)\n",
      appends_per_action, per_append_cpu_ms, per_action_cpu_ms,
      wal_overhead_pct);

  char extra[512];
  std::snprintf(
      extra, sizeof(extra),
      "\"records\": %lld, \"cores\": %u,\n  "
      "\"wal_append_ops_per_sec\": %.1f, "
      "\"snapshot_restore_ops_per_sec\": %.1f,\n  "
      "\"wal_appends_per_action\": %.3f, \"wal_bytes_per_action\": %.1f,\n  "
      "\"wal_overhead_pct\": %.4f",
      static_cast<long long>(kRecords), std::thread::hardware_concurrency(),
      append_ops_per_sec, restore_ops_per_sec, appends_per_action,
      bytes_per_action, wal_overhead_pct);
  const bool wrote = bench::WriteBenchJson("micro_recover", summary, extra);

  std::filesystem::remove_all(dir);
  return wrote ? 0 : 1;
}
