// Microbenchmark: the sharded multi-threaded CF executor vs the serial
// reference on the same action stream. Each iteration streams the whole
// batch through and drains, so items/s is end-to-end pipeline throughput.
//
// Shard scaling only materializes with real cores: on an N-core machine
// expect ~min(shards, N-1)x once per-event work dominates queue hops (the
// executor batches events to keep the queue overhead small). The harness
// prints hardware_concurrency so runs are comparable across machines.

#include <benchmark/benchmark.h>

#include <csignal>
#include <ctime>

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stage.h"
#include "core/itemcf/item_cf.h"
#include "core/itemcf/parallel_cf.h"
#include "obs/freshness.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"

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

PracticalItemCf::Options AlgoOptions() {
  PracticalItemCf::Options options;
  options.linked_time = Hours(4);
  options.window_sessions = 8;
  options.session_length = Hours(6);
  options.enable_pruning = false;
  return options;
}

void BM_ReferenceStream(benchmark::State& state) {
  const auto stream = MakeStream(50000);
  for (auto _ : state) {
    PracticalItemCf cf(AlgoOptions());
    for (const auto& a : stream) cf.ProcessAction(a);
    benchmark::DoNotOptimize(cf.stats().pair_updates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_ReferenceStream)->Unit(benchmark::kMillisecond);

void BM_ParallelStream(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const auto stream = MakeStream(50000);
  for (auto _ : state) {
    ParallelItemCf::Options options;
    options.cf = AlgoOptions();
    options.user_shards = shards;
    options.pair_shards = shards;
    ParallelItemCf cf(options);
    cf.ProcessActions(stream);
    cf.Drain();
    benchmark::DoNotOptimize(cf.stats().pair_updates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_ParallelStream)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("shards")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The tracked configuration (4 shards, 50k actions) timed by hand and
/// written to BENCH_micro_parallel.json — the regression baseline
/// scripts/run_bench.sh collects, independent of google-benchmark's own
/// rep policy so the JSON is stable run to run.
void EmitJsonBaseline() {
  const auto stream = MakeStream(50000);
  constexpr int kReps = 9;
  auto one_rep = [&stream] {
    const auto t0 = std::chrono::steady_clock::now();
    ParallelItemCf::Options options;
    options.cf = AlgoOptions();
    options.user_shards = 4;
    options.pair_shards = 4;
    ParallelItemCf cf(options);
    cf.ProcessActions(stream);
    cf.Drain();
    benchmark::DoNotOptimize(cf.stats().pair_updates);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::vector<double> rep_ms;
  (void)one_rep();  // warmup
  for (int r = 0; r < kReps; ++r) rep_ms.push_back(one_rep());
  const auto summary =
      bench::Summarize(rep_ms, static_cast<double>(stream.size()));

  // The rep for the overhead pairings below: the SERIAL reference on the
  // same stream, on the bench main thread registered as a stage. Two
  // reasons it is not the tracked 4+4 config:
  //   * a multi-threaded rep's process CPU varies +-8% run to run on a
  //     contended box (the futex sleep/wake count under backpressure is
  //     scheduling-dependent) — noise far past the budget being measured,
  //     while the serial rep's CPU is deterministic to well under 1%;
  //   * registering this thread puts the profiler's CPU-time timer on the
  //     thread doing the work, so the pairing measures real signal
  //     delivery + handler cost, not an idle armed timer.
  // The per-sample/per-signal instrumentation cost is the same either way.
  auto one_rep_serial = [&stream] {
    const auto t0 = std::chrono::steady_clock::now();
    PracticalItemCf cf(AlgoOptions());
    for (const auto& a : stream) cf.ProcessAction(a);
    benchmark::DoNotOptimize(cf.stats().pair_updates);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Overhead accounting for the always-on planes (the *_overhead_pct
  // fields scripts/check_bench.py gates against the 3% budget of
  // DESIGN.md §12/§13). Paired plain-vs-instrumented reps were tried and
  // rejected: on a shared single-core box, co-tenant interference inflates
  // the process CPU time of IDENTICAL single-threaded reps by up to 30%
  // in bursts that outlast any affordable pairing schedule, so a paired
  // difference cannot resolve a sub-percent cost — it flaps double digits
  // in both directions. Instead each plane's cost is timed at its source,
  // min-over-blocks (for a fixed instruction sequence interference only
  // ever ADDS CPU time, so the minimum converges on the uninterfered
  // cost), and expressed as the fraction of one core the plane consumes
  // in steady state — which is the quantity the budget bounds.
  RegisterStageThread("bench-main");
  auto cpu_ms_now = [] {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  // Re-timing a block of N identical operations, keeping the cheapest
  // per-op cost seen.
  auto min_block_ms = [&cpu_ms_now](int blocks, int per_block,
                                    const std::function<void()>& op) {
    double best = 0.0;
    for (int b = 0; b < blocks; ++b) {
      const double c0 = cpu_ms_now();
      for (int i = 0; i < per_block; ++i) op();
      const double one = (cpu_ms_now() - c0) / per_block;
      if (b == 0 || one < best) best = one;
    }
    return best;
  };

  // Observability sampler: CPU per registry walk (SampleNow with the
  // freshness hook installed, registry populated by the executors above)
  // over the production sampling period.
  obs::TimeSeriesStore::Options ts_options;
  ts_options.capacity = 4096;
  obs::TimeSeriesStore ts(&MetricRegistry::Default(), ts_options);
  ts.SetPreSampleHook([](uint64_t now) {
    obs::FreshnessTracker::Default().PublishGauges(&MetricRegistry::Default(),
                                                   now);
  });
  const double walk_ms = min_block_ms(8, 25, [&ts] { ts.SampleNow(); });
  const double obs_overhead_pct =
      walk_ms / static_cast<double>(ts_options.sample_period_ms) * 100.0;

  // Profiler: CPU per sample — kernel signal delivery + handler stack
  // capture + ring write, driven through the real installed handler with
  // raise(SIGPROF) on this registered thread — times hz samples per
  // CPU-second at the production default rate. (The ring intentionally
  // overwrites when full, so hammering it keeps the steady-state cost.)
  obs::Profiler::Instance().Start(obs::Profiler::Options());
  const double sample_ms = min_block_ms(8, 200, [] { raise(SIGPROF); });
  const double profiler_overhead_pct =
      sample_ms * static_cast<double>(obs::Profiler::Options().hz) / 10.0;

  // End-to-end serial throughput with each plane left on — informational
  // fields showing the planes don't gross-out the pipeline (wall clock, so
  // noisy; the gated numbers are the analytic ones above).
  auto plane_ops = [&](const std::function<void()>& stop) {
    std::vector<double> wall_ms;
    for (int r = 0; r < 5; ++r) wall_ms.push_back(one_rep_serial());
    stop();
    return bench::Summarize(wall_ms, static_cast<double>(stream.size()))
        .ops_per_sec;
  };
  const double profiler_ops_per_sec =
      plane_ops([] { obs::Profiler::Instance().Stop(); });
  ts.Start();
  const double obs_ops_per_sec = plane_ops([&ts] { ts.Stop(); });

  char extra[448];
  std::snprintf(extra, sizeof(extra),
                "\"shards\": 4, \"actions\": %zu, \"reps\": %d, "
                "\"cores\": %u,\n  "
                "\"obs_ops_per_sec\": %.1f, \"obs_overhead_pct\": %.4f,\n  "
                "\"profiler_ops_per_sec\": %.1f, "
                "\"profiler_overhead_pct\": %.4f",
                stream.size(), kReps, std::thread::hardware_concurrency(),
                obs_ops_per_sec, obs_overhead_pct, profiler_ops_per_sec,
                profiler_overhead_pct);
  bench::WriteBenchJson("micro_parallel", summary, extra);
}

}  // namespace

int main(int argc, char** argv) {
  EmitJsonBaseline();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
