// Host-aware batched TDStore I/O vs the point-op hot path, on the store op
// mix the count/similarity bolts generate per action:
//
//   2 counter increments (itemCount, pairCount), 2 threshold reads, and one
//   similar-list/threshold overwrite.
//
// The point phase issues them one client call per op (the pre-batching
// shape); the batched phase buffers one combiner window of actions and
// ships the same logical ops as grouped per-host Multi* calls, with the
// window's overwrites staged in a bolt's write-behind topo::StoreCache and
// shipped by one Flush per window. Both phases run against identical
// clusters; the reduction is measured with DataServer::invocations(), which
// counts client-facing entry calls (a whole batch = 1) while reads/writes
// keep per-op accounting.
//
// Acceptance (ISSUE): batching cuts data-server invocations per action by
// at least 3x. The harness asserts that and exits nonzero on regression.
//
// Plain harness with its own main; emits BENCH_micro_store.json:
//   ./bench/micro_store

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "tdstore/client.h"
#include "tdstore/cluster.h"
#include "topo/store_cache.h"

namespace {

using namespace tencentrec;
using namespace tencentrec::tdstore;

constexpr int kActions = 20000;
constexpr int kWindow = 64;  // combiner flush interval (actions per flush)
constexpr int kReps = 5;

struct Action {
  int item = 0;
  int other = 0;  // co-rated item forming the pair
};

std::vector<Action> MakeStream(uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(500, 0.9);
  std::vector<Action> actions;
  actions.reserve(kActions);
  for (int i = 0; i < kActions; ++i) {
    Action a;
    a.item = static_cast<int>(1 + zipf.Sample(rng));
    a.other = static_cast<int>(1 + zipf.Sample(rng));
    actions.push_back(a);
  }
  return actions;
}

std::string IcKey(int item) { return "ic:" + std::to_string(item); }
std::string PcKey(int lo, int hi) {
  return "pc:" + std::to_string(lo) + ":" + std::to_string(hi);
}
std::string StKey(int item) { return "st:" + std::to_string(item); }

std::unique_ptr<Cluster> MakeCluster() {
  Cluster::Options options;
  options.num_data_servers = 3;
  options.num_instances = 12;
  auto cluster = Cluster::Create(options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(cluster).value();
}

int64_t TotalInvocations(Cluster* cluster) {
  int64_t total = 0;
  for (int s = 0; s < cluster->num_data_servers(); ++s) {
    total += cluster->data_server(s)->invocations();
  }
  return total;
}

void ResetCounters(Cluster* cluster) {
  for (int s = 0; s < cluster->num_data_servers(); ++s) {
    cluster->data_server(s)->ResetCounters();
  }
}

#define CHECK_OK(expr)                                                    \
  do {                                                                    \
    auto _s = (expr);                                                     \
    if (!_s.ok()) {                                                       \
      std::fprintf(stderr, "%s: %s\n", #expr, _s.ToString().c_str());     \
      std::exit(1);                                                       \
    }                                                                     \
  } while (0)

// The pre-batching hot path: every logical op is its own client call.
double RunPoint(const std::vector<Action>& stream, int64_t* invocations) {
  auto cluster = MakeCluster();
  Client client(cluster.get());
  CHECK_OK(client.Put("warm", "route"));
  ResetCounters(cluster.get());
  const uint64_t t0 = MonoMicros();
  for (const auto& a : stream) {
    const int lo = std::min(a.item, a.other);
    const int hi = std::max(a.item, a.other);
    CHECK_OK(client.IncrDouble(IcKey(a.item), 1.0).status());
    CHECK_OK(client.IncrDouble(PcKey(lo, hi), 1.0).status());
    CHECK_OK(client.GetDouble(StKey(lo)).status());
    CHECK_OK(client.GetDouble(StKey(hi)).status());
    CHECK_OK(client.PutDouble(StKey(a.item), 0.5));
  }
  const double ms = static_cast<double>(MonoMicros() - t0) / 1e3;
  *invocations = TotalInvocations(cluster.get());
  return ms;
}

// The batched path: one combiner window buffers its increments, then ships
// them as grouped Multi* calls; threshold reads go through one MultiGet per
// window; overwrites are staged in a write-behind StoreCache and flushed
// once per window (a window stages at most kWindow keys, below the cache's
// auto-flush threshold).
double RunBatched(const std::vector<Action>& stream, int64_t* invocations) {
  auto cluster = MakeCluster();
  Client client(cluster.get());
  CHECK_OK(client.Put("warm", "route"));
  topo::StoreCache cache(&client, 0);
  ResetCounters(cluster.get());
  const uint64_t t0 = MonoMicros();
  for (size_t start = 0; start < stream.size();
       start += static_cast<size_t>(kWindow)) {
    const size_t end =
        std::min(start + static_cast<size_t>(kWindow), stream.size());
    std::vector<std::pair<std::string, double>> adds;
    std::vector<std::string> reads;
    adds.reserve(2 * (end - start));
    reads.reserve(2 * (end - start));
    for (size_t i = start; i < end; ++i) {
      const Action& a = stream[i];
      const int lo = std::min(a.item, a.other);
      const int hi = std::max(a.item, a.other);
      adds.emplace_back(IcKey(a.item), 1.0);
      adds.emplace_back(PcKey(lo, hi), 1.0);
      reads.push_back(StKey(lo));
      reads.push_back(StKey(hi));
      cache.Put(StKey(a.item), EncodeDouble(0.5));
    }
    std::vector<Result<double>> incr_out;
    CHECK_OK(client.MultiIncrDouble(adds, &incr_out));
    std::vector<Result<double>> read_out;
    CHECK_OK(client.MultiGetDouble(reads, 0.0, &read_out));
    CHECK_OK(cache.Flush());
  }
  const double ms = static_cast<double>(MonoMicros() - t0) / 1e3;
  *invocations = TotalInvocations(cluster.get());
  return ms;
}

}  // namespace

int main() {
  SetMetricsEnabled(true);
  const auto stream = MakeStream(bench::SeedFromEnv());

  std::vector<double> point_ms;
  std::vector<double> batched_ms;
  int64_t point_inv = 0;
  int64_t batched_inv = 0;
  (void)RunBatched(stream, &batched_inv);  // warmup
  for (int r = 0; r < kReps; ++r) {
    point_ms.push_back(RunPoint(stream, &point_inv));
    batched_ms.push_back(RunBatched(stream, &batched_inv));
  }

  const double point_per_action =
      static_cast<double>(point_inv) / static_cast<double>(kActions);
  const double batched_per_action =
      static_cast<double>(batched_inv) / static_cast<double>(kActions);
  const double reduction = point_per_action / batched_per_action;

  std::printf("== micro_store: %d actions, window %d, best of %d ==\n",
              kActions, kWindow, kReps);
  std::printf("  point    %8.2f ms  %6.2f server invocations/action\n",
              *std::min_element(point_ms.begin(), point_ms.end()),
              point_per_action);
  std::printf("  batched  %8.2f ms  %6.2f server invocations/action\n",
              *std::min_element(batched_ms.begin(), batched_ms.end()),
              batched_per_action);
  std::printf("  reduction %6.1fx  (target >= 3x)\n", reduction);

  const auto summary =
      bench::Summarize(batched_ms, static_cast<double>(kActions));
  char extra[200];
  std::snprintf(extra, sizeof(extra),
                "\"point_invocations_per_action\": %.2f, "
                "\"batched_invocations_per_action\": %.2f, "
                "\"invocation_reduction_x\": %.1f",
                point_per_action, batched_per_action, reduction);
  bench::WriteBenchJson("micro_store", summary, extra);

  if (reduction < 3.0) {
    std::fprintf(stderr,
                 "FAIL: batching reduced invocations only %.1fx (< 3x)\n",
                 reduction);
    return 1;
  }
  return 0;
}
