// Microbenchmarks: the recommender-engine serving path (Fig. 9) — latency
// of answering recommendation queries from TDStore state. The paper's
// deployment answers 10 billion requests/day (~0.5M/s peak) from this
// path; these numbers show what one core of the reproduction sustains.
//
// main() first runs the batched-query-tier harness: 8 concurrent querents
// replay the same hot-user sequence through the batched tier (deduped
// grouped MultiGets + shared QueryCache with single-flight coalescing),
// asserting a >= 5x cut in store invocations per recommendation against
// the keys the queries planned — the point reads a one-Get-per-key path
// would make — and emitting BENCH_micro_query.json. The google-benchmark
// suite follows; BM_RecommendCfMirror serves the same warm state from the
// engine's in-memory ParallelItemCf mirror, for comparison with
// BM_RecommendCf's store-backed path.

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/tencentrec.h"
#include "topo/query.h"

namespace {

using namespace tencentrec;
using namespace tencentrec::core;

std::unique_ptr<engine::TencentRec> MakeWarmEngine() {
  engine::TencentRec::Options options;
  options.app.app = "bench";
  options.app.parallelism = 2;
  options.app.linked_time = Hours(4);
  options.app.algorithms.ctr = true;
  // Windowed counters (6 live sessions) so every candidate/pair count is a
  // multi-key window read — the regime the batched tier is built for.
  options.app.window_sessions = 6;
  // ProcessBatch feeds the mirror the same stream the topology ingests.
  options.mirror_parallel_cf = true;
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  auto engine = engine::TencentRec::Create(options);
  if (!engine.ok()) return nullptr;

  Rng rng(5);
  ZipfSampler zipf(300, 0.9);
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kPurchase,
                               ActionType::kImpression};
  std::vector<UserAction> actions;
  for (int i = 0; i < 30000; ++i) {
    UserAction a;
    a.user = static_cast<UserId>(1 + rng.Uniform(200));
    a.item = static_cast<ItemId>(1 + zipf.Sample(rng));
    a.action = kTypes[rng.Uniform(5)];
    a.timestamp = Seconds(i);
    a.demographics.gender = rng.Bernoulli(0.5) ? Demographics::kMale
                                               : Demographics::kFemale;
    a.demographics.age_band = static_cast<uint8_t>(1 + a.user % 4);
    actions.push_back(a);
  }
  if (!(*engine)->ProcessBatch(actions).ok()) return nullptr;
  return std::move(engine).value();
}

engine::TencentRec* WarmEngine() {
  static engine::TencentRec* engine = MakeWarmEngine().release();
  return engine;
}

int64_t TotalInvocations(tdstore::Cluster* cluster) {
  int64_t total = 0;
  for (int s = 0; s < cluster->num_data_servers(); ++s) {
    total += cluster->data_server(s)->invocations();
  }
  return total;
}

void ResetInvocations(tdstore::Cluster* cluster) {
  for (int s = 0; s < cluster->num_data_servers(); ++s) {
    cluster->data_server(s)->ResetCounters();
  }
}

struct PhaseResult {
  int64_t invocations = 0;
  double wall_ms = 0.0;
  std::vector<double> query_ms;  // per-recommendation latencies, all threads
};

/// `threads` concurrent querents replay the same hot-user sequence (the
/// burst pattern of §5.2); each builds its StoreQuery from `make_query`.
PhaseResult RunPhase(
    engine::TencentRec* engine, int threads, int recs_per_thread,
    const std::function<std::unique_ptr<topo::StoreQuery>()>& make_query) {
  const EventTime now = Seconds(31000);
  ResetInvocations(engine->store());
  std::vector<std::vector<double>> lat(threads);
  std::atomic<int> ready{0};
  std::atomic<int> failed{0};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto query = make_query();
      lat[t].reserve(recs_per_thread);
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      for (int k = 0; k < recs_per_thread; ++k) {
        const UserId user = static_cast<UserId>(1 + (k * 13) % 200);
        const auto q_start = std::chrono::steady_clock::now();
        auto recs = query->RecommendCf(user, 10, now);
        const auto q_end = std::chrono::steady_clock::now();
        if (!recs.ok()) {
          failed.fetch_add(1);
          continue;
        }
        lat[t].push_back(
            std::chrono::duration<double, std::milli>(q_end - q_start)
                .count());
      }
    });
  }
  for (auto& th : pool) th.join();
  PhaseResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  r.invocations = TotalInvocations(engine->store());
  for (auto& v : lat) {
    r.query_ms.insert(r.query_ms.end(), v.begin(), v.end());
  }
  if (failed.load() > 0) {
    std::fprintf(stderr, "FAIL: %d recommendations errored\n", failed.load());
    std::exit(1);
  }
  return r;
}

int RunQueryTierHarness() {
  auto* engine = WarmEngine();
  if (engine == nullptr) {
    std::fprintf(stderr, "FAIL: engine init failed\n");
    return 1;
  }
  constexpr int kThreads = 8;
  constexpr int kRecsPerThread = 25;
  const int total_recs = kThreads * kRecsPerThread;

  // Per-thread StoreQuery sharing the engine's QueryCache — the deployment
  // shape (one cache per serving process). Every planned fetch records its
  // key count (before dedupe and caching) on topo.query.fetch_keys, so the
  // phase's sum is the number of point reads the same recommendations
  // would cost without the tier.
  LatencyHistogram* fetch_keys =
      MetricRegistry::Default().GetHistogram("topo.query.fetch_keys");
  const uint64_t keys_before = fetch_keys->Snap().sum;
  PhaseResult batched =
      RunPhase(engine, kThreads, kRecsPerThread, [engine] {
        return std::make_unique<topo::StoreQuery>(&engine->app(),
                                                  engine->query_cache());
      });
  const uint64_t planned_keys = fetch_keys->Snap().sum - keys_before;

  const double planned_per_rec =
      static_cast<double>(planned_keys) / total_recs;
  const double invocations_per_rec =
      static_cast<double>(batched.invocations) / total_recs;
  const double reduction =
      invocations_per_rec > 0 ? planned_per_rec / invocations_per_rec : 0.0;

  std::printf("query tier: %d threads x %d recs\n", kThreads,
              kRecsPerThread);
  std::printf("  planned:   %.1f keys/rec\n", planned_per_rec);
  std::printf("  batched:   %.1f store invocations/rec, p99 %.3f ms\n",
              invocations_per_rec,
              bench::SamplePercentile(batched.query_ms, 99));
  std::printf("  reduction: %.1fx\n", reduction);

  bench::BenchSummary summary;
  summary.ops_per_sec =
      batched.wall_ms > 0 ? total_recs / (batched.wall_ms / 1e3) : 0.0;
  summary.p50_ms = bench::SamplePercentile(batched.query_ms, 50);
  summary.p95_ms = bench::SamplePercentile(batched.query_ms, 95);
  summary.p99_ms = bench::SamplePercentile(batched.query_ms, 99);
  char extra[340];
  std::snprintf(extra, sizeof(extra),
                "\"threads\": %d,\n  \"recs\": %d,\n"
                "  \"planned_keys_per_rec\": %.2f,\n"
                "  \"store_invocations_per_rec_batched\": %.2f,\n"
                "  \"invocation_reduction\": %.2f",
                kThreads, total_recs, planned_per_rec, invocations_per_rec,
                reduction);
  bench::WriteBenchJson("micro_query", summary, extra);

  if (reduction < 5.0) {
    std::fprintf(stderr,
                 "FAIL: batched query tier cut store invocations only "
                 "%.1fx below the planned keys (< 5x)\n",
                 reduction);
    return 1;
  }
  return 0;
}

void BM_RecommendCf(benchmark::State& state) {
  auto* engine = WarmEngine();
  if (engine == nullptr) {
    state.SkipWithError("engine init failed");
    return;
  }
  UserId user = 1;
  const EventTime now = Seconds(31000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->query().RecommendCf(1 + (user++ % 200), 10, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecommendCf);

void BM_RecommendCfMirror(benchmark::State& state) {
  auto* engine = WarmEngine();
  if (engine == nullptr || engine->parallel_cf() == nullptr) {
    state.SkipWithError("engine init failed");
    return;
  }
  const core::ParallelItemCf* mirror = engine->parallel_cf();
  UserId user = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mirror->RecommendForUser(1 + (user++ % 200), 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecommendCfMirror);

void BM_HybridRecommend(benchmark::State& state) {
  auto* engine = WarmEngine();
  if (engine == nullptr) {
    state.SkipWithError("engine init failed");
    return;
  }
  Demographics d;
  d.gender = Demographics::kMale;
  d.age_band = 2;
  UserId user = 1;
  const EventTime now = Seconds(31000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->query().Recommend(1 + (user++ % 400), d, 10, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridRecommend);

void BM_PredictCtr(benchmark::State& state) {
  auto* engine = WarmEngine();
  if (engine == nullptr) {
    state.SkipWithError("engine init failed");
    return;
  }
  Demographics d;
  d.gender = Demographics::kFemale;
  d.age_band = 3;
  ItemId item = 1;
  const EventTime now = Seconds(31000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->query().PredictCtr(1 + (item++ % 300), d, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictCtr);

void BM_HotItems(benchmark::State& state) {
  auto* engine = WarmEngine();
  if (engine == nullptr) {
    state.SkipWithError("engine init failed");
    return;
  }
  const EventTime now = Seconds(31000);
  core::GroupId group = core::DemographicGroup([] {
    Demographics d;
    d.gender = Demographics::kMale;
    d.age_band = 2;
    return d;
  }());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->query().HotItems(group, 10, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotItems);

}  // namespace

int main(int argc, char** argv) {
  const int harness = RunQueryTierHarness();
  if (harness != 0) return harness;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
