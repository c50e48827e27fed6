// Microbenchmarks: the practical item-based CF — per-action update cost
// (with and without pruning / windowing) and recommendation latency.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/itemcf/item_cf.h"

namespace {

using namespace tencentrec;
using namespace tencentrec::core;

std::vector<UserAction> MakeStream(int n) {
  Rng rng(17);
  ZipfSampler zipf(500, 0.9);
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kPurchase};
  std::vector<UserAction> actions;
  actions.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    UserAction a;
    a.user = static_cast<UserId>(1 + rng.Uniform(300));
    a.item = static_cast<ItemId>(1 + zipf.Sample(rng));
    a.action = kTypes[rng.Uniform(4)];
    a.timestamp = Seconds(i);
    actions.push_back(a);
  }
  return actions;
}

void BM_ProcessAction(benchmark::State& state) {
  const bool pruning = state.range(0) != 0;
  const int window = static_cast<int>(state.range(1));
  const auto stream = MakeStream(100000);
  PracticalItemCf::Options options;
  options.linked_time = Hours(4);
  options.enable_pruning = pruning;
  options.window_sessions = window;
  options.session_length = Hours(6);
  PracticalItemCf cf(options);
  size_t i = 0;
  for (auto _ : state) {
    cf.ProcessAction(stream[i++ % stream.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessAction)
    ->ArgsProduct({{0, 1}, {0, 8}})
    ->ArgNames({"pruning", "window"});

void BM_Recommend(benchmark::State& state) {
  const auto stream = MakeStream(100000);
  PracticalItemCf::Options options;
  options.linked_time = Hours(4);
  options.recent_k = static_cast<int>(state.range(0));
  PracticalItemCf cf(options);
  for (const auto& a : stream) cf.ProcessAction(a);
  UserId user = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cf.RecommendForUser(1 + (user++ % 300), 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Recommend)->Arg(5)->Arg(20)->ArgName("recent_k");

/// The tracked configuration (pruning on, 8-session window — the full
/// practical pipeline, i.e. the heaviest per-action path) timed by hand
/// over the whole 100k-action stream and written to
/// BENCH_micro_itemcf.json — the regression baseline scripts/run_bench.sh
/// collects and scripts/check_bench.py gates, independent of
/// google-benchmark's own rep policy so the JSON is stable run to run.
void EmitJsonBaseline() {
  const auto stream = MakeStream(100000);
  constexpr int kReps = 5;

  PracticalItemCf::Options options;
  options.linked_time = Hours(4);
  options.enable_pruning = true;
  options.window_sessions = 8;
  options.session_length = Hours(6);

  auto one_rep = [&stream](const PracticalItemCf::Options& opts) {
    const auto t0 = std::chrono::steady_clock::now();
    PracticalItemCf cf(opts);
    for (const auto& a : stream) cf.ProcessAction(a);
    benchmark::DoNotOptimize(cf.stats().pair_updates);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::vector<double> rep_ms;
  (void)one_rep(options);  // warmup
  for (int r = 0; r < kReps; ++r) rep_ms.push_back(one_rep(options));
  const auto summary =
      bench::Summarize(rep_ms, static_cast<double>(stream.size()));

  char extra[200];
  std::snprintf(extra, sizeof(extra),
                "\"actions\": %zu, \"reps\": %d, \"pruning\": true, "
                "\"window_sessions\": 8",
                stream.size(), kReps);
  bench::WriteBenchJson("micro_itemcf", summary, extra);
}

}  // namespace

int main(int argc, char** argv) {
  EmitJsonBaseline();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
