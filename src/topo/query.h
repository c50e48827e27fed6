#ifndef TENCENTREC_TOPO_QUERY_H_
#define TENCENTREC_TOPO_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/scored.h"
#include "tdstore/client.h"
#include "topo/app.h"
#include "topo/blob_codec.h"
#include "topo/query_cache.h"

namespace tencentrec::topo {

/// A QueryCache sized from the app's query_cache_* options.
std::shared_ptr<QueryCache> MakeQueryCache(const AppOptions& options);

/// The recommender-engine read path (Fig. 9): answers recommendation
/// queries purely from the state the topology maintains in TDStore. This is
/// what the "Recommender Engine" box does — it never touches the stream
/// pipeline, so queries scale independently of ingestion.
///
/// Every query plans its full key set up front — all session keys for all
/// candidate items/pairs, similar-item lists, tag indexes, item tags —
/// dedupes repeated keys, and issues grouped MultiGets through a QueryCache
/// (short-TTL positive/negative entries + single-flight coalescing) instead
/// of one point Get per key. Window sums add the sessions in order, so a
/// score is bit-identical to one computed from point reads of the same
/// state. Under per-key transient store errors a recommendation degrades
/// per candidate (the batched client's per-key-status semantics) instead of
/// failing as a whole.
///
/// Not thread-safe; create one per serving thread (each owns a client).
/// Concurrent serving threads SHOULD share one QueryCache (second
/// constructor) — that sharing is what collapses identical in-flight reads
/// across threads into one store round-trip.
class StoreQuery {
 public:
  /// Owns a private QueryCache sized from `app->options`.
  explicit StoreQuery(const AppContext* app);
  /// Shares `cache` with other StoreQuery instances (the engine wires all
  /// serving threads to one cache); nullptr = a private cache as above.
  StoreQuery(const AppContext* app, std::shared_ptr<QueryCache> cache);

  /// Item-based CF prediction (Eq. 2 over the user's recent-k items, §4.3)
  /// by the in-memory kernels' rule (core::CollectTerms, ScoreTerms): terms
  /// from the sim:<q> lists, each weighted by Eq. 5 over the current window
  /// counts, so on the same state it returns what RecommendForUser does.
  /// Excludes items the user already rated.
  Result<core::Recommendations> RecommendCf(core::UserId user, size_t n,
                                            EventTime now);

  /// Demographic hot items with global-group fallback.
  Result<core::Recommendations> HotItems(core::GroupId group, size_t n,
                                         EventTime now);

  /// The production composition: CF, filtered by the app's result_filter,
  /// complemented by DB hot items (§4.2/§6.4).
  Result<core::Recommendations> Recommend(core::UserId user,
                                          const core::Demographics& d,
                                          size_t n, EventTime now);

  /// Content-based recommendation from the cp:<user> profile blob and the
  /// tag inverted index. Excludes seen (rated) items; unlike
  /// core::ContentBased it keeps no publish time, so no item expires.
  Result<core::Recommendations> RecommendCb(core::UserId user, size_t n,
                                            EventTime now);

  /// Association-rule recommendation: confidence(from -> to) =
  /// windowPairCount / windowItemCount(from), candidates drawn from the
  /// similar-items list of `from`.
  Result<core::Recommendations> RecommendAr(core::ItemId from, size_t n,
                                            EventTime now,
                                            double min_support = 2.0,
                                            double min_confidence = 0.05);

  /// Situational CTR estimate (hierarchical shrinkage over window counts).
  Result<double> PredictCtr(core::ItemId item, const core::Demographics& d,
                            EventTime now);

  /// Raw windowed (impressions, clicks) at the situation's deepest level —
  /// the §1 "CTR during the last ten seconds among male users..." query.
  Result<std::pair<double, double>> SituationCounts(
      core::ItemId item, const core::Demographics& d, EventTime now);

  /// The list materialized by ResultStorageBolt (empty if none).
  Result<core::Recommendations> MaterializedResults(core::UserId user);

  /// Windowed similarity of a pair recomputed from counts (test hook).
  Result<double> SimilarityFromCounts(core::ItemId a, core::ItemId b,
                                      EventTime now);

  /// Windowed itemCount (test hook / AR support).
  Result<double> WindowItemCount(core::ItemId item, EventTime now);
  Result<double> WindowPairCount(core::ItemId a, core::ItemId b,
                                 EventTime now);

  /// The cache behind every read.
  QueryCache* cache() { return cache_.get(); }

 private:
  Result<double> WindowSum(
      const std::function<std::string(int64_t session)>& key_of,
      EventTime now);
  Result<core::UserHistory> LoadHistory(core::UserId user);

  /// Batched read of `keys` through the QueryCache (dedupe + TTL cache +
  /// coalescing). `out` gets one Result per input key.
  Status FetchMany(const std::vector<std::string>& keys,
                   std::vector<Result<std::string>>* out);
  /// Single-key read through the same tier (still coalesces/caches).
  Result<std::string> FetchOne(const std::string& key);

  /// Counts one candidate dropped for a transient per-key store error.
  void Degraded();

  const AppContext* app_;
  std::unique_ptr<tdstore::Client> client_;
  std::shared_ptr<QueryCache> cache_;

  LatencyHistogram* fetch_keys_ = nullptr;  ///< keys per batched fetch
  LatencyHistogram* fetch_us_ = nullptr;    ///< batched fetch latency
  Counter* degraded_ = nullptr;  ///< candidates dropped on per-key errors
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_QUERY_H_
