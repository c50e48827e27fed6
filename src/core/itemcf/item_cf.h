#ifndef TENCENTREC_CORE_ITEMCF_ITEM_CF_H_
#define TENCENTREC_CORE_ITEMCF_ITEM_CF_H_

#include <deque>
#include <vector>

#include "common/flat_map.h"
#include "common/topk.h"
#include "core/itemcf/window_counts.h"
#include "core/rating.h"
#include "core/scored.h"

namespace tencentrec::core {

/// The paper's practical scalable item-based collaborative filtering (§4.1),
/// as a single-process reference implementation. The distributed topology
/// (topo/) runs the same math split across bolts with state in TDStore; the
/// two are cross-checked in tests.
///
/// Per action, the pipeline is:
///  1. user-history layer: max-weight rating update + co-rating deltas
///     (implicit feedback solution, Eq. 3–4);
///  2. count layer: incremental itemCount/pairCount updates over the
///     sliding window (Eq. 6–8, 10);
///  3. similarity layer: sim from counts (Eq. 5), maintenance of each
///     item's top-K similar-items list, and Hoeffding-bound real-time
///     pruning (Eq. 9, Algorithm 1).
class PracticalItemCf {
 public:
  struct Options {
    ActionWeights weights;

    /// Items rated together within this span form pairs (§4.1.4).
    EventTime linked_time = Hours(6);

    /// Size K of each item's similar-items list.
    int top_k = 20;

    /// Recent items per user used at prediction time (§4.3). 0 = all.
    int recent_k = 10;

    /// Sliding window (Eq. 10): session granularity and window size in
    /// sessions. window_sessions = 0 disables forgetting.
    EventTime session_length = Hours(1);
    int window_sessions = 0;

    /// Hoeffding-bound pruning (Algorithm 1).
    bool enable_pruning = false;
    double hoeffding_delta = 0.05;

    /// Support shrinkage (production extension, not in the paper's
    /// formulas): scores used for ranking/lists are
    /// sim · pairCount/(pairCount + shrinkage), damping the sim≈1 noise of
    /// one-off co-occurrences between rare items. 0 disables (pure Eq. 5);
    /// Similarity() always reports the unshrunk Eq. 5 value.
    double support_shrinkage = 0.0;

    /// Drop user-history entries idle longer than this (0 = keep forever).
    EventTime history_ttl = 0;
  };

  /// Counters for the ablation benches: how much work pruning saved etc.
  struct Stats {
    int64_t actions = 0;
    int64_t pair_updates = 0;          ///< pair counters actually updated
    int64_t pair_updates_pruned = 0;   ///< skipped because pair was pruned
    int64_t pairs_pruned = 0;          ///< prune decisions taken
  };

  explicit PracticalItemCf(Options options);

  /// Ingests one user action, updating all three layers.
  void ProcessAction(const UserAction& action);

  /// Current similarity from windowed counts (Eq. 5/10).
  double Similarity(ItemId a, ItemId b) const {
    return counts_.Similarity(a, b);
  }

  /// Similarity with support shrinkage applied (what lists/ranking use).
  double EffectiveSimilarity(ItemId a, ItemId b) const;

  /// The top-K similar-items table of `item` (nullptr if none yet).
  const TopK<ItemId>* SimilarItems(ItemId item) const;

  /// Predicts ratings for unseen items and returns the best `n` (Eq. 2,
  /// with N_k(i_p) replaced by the user's recent-k items per §4.3). Items
  /// the user already rated are excluded. May return fewer than `n`; the
  /// caller complements with the DB algorithm (HybridRecommender does).
  Recommendations RecommendForUser(UserId user, size_t n) const;

  /// The user's recent-k item set (exposed for the hybrid recommender).
  std::vector<ItemId> RecentItemsOf(UserId user) const;
  double UserRating(UserId user, ItemId item) const;

  const Stats& stats() const { return stats_; }
  const WindowedCounts& counts() const { return counts_; }
  const Options& options() const { return options_; }

  /// True if the pair is currently pruned (test hook).
  bool IsPruned(ItemId a, ItemId b) const;

 private:
  /// Layers 2+3 for one pair delta (Algorithm 1 body).
  void UpdatePair(ItemId i, ItemId j, double co_delta, EventTime ts);
  /// Admission threshold t of `item`'s similar-items list.
  double ThresholdOf(ItemId item) const;
  /// EffectiveSimilarity with the (already read) windowed pair count —
  /// saves the redundant PairCount probes of the old per-update flow.
  double EffectiveFromCounts(ItemId a, ItemId b, double pair_count) const;

  /// State accessors over the slot-indexed stores below.
  UserHistory& HistoryFor(UserId user);
  const UserHistory* FindHistory(UserId user) const;
  TopK<ItemId>& ListFor(ItemId item);
  TopK<ItemId>* FindList(ItemId item);
  const TopK<ItemId>* FindList(ItemId item) const;

  Options options_;
  double hoeffding_ln_inv_delta_ = 0.0;

  WindowedCounts counts_;

  /// Open-addressing indices (packed ids -> 1-based slots) into
  /// stable-address deques for the heavy values, flat tables for the
  /// scalar counters.
  FlatMap64<uint32_t> history_index_;
  std::deque<UserHistory> history_store_;
  FlatMap64<uint32_t> similar_index_;
  std::deque<TopK<ItemId>> similar_store_;
  /// n_ij of Algorithm 1: observations of each pair's similarity.
  FlatMap64<uint32_t> observations_;
  /// L_i of Algorithm 1, stored canonically per packed pair.
  FlatSet64 pruned_;

  Stats stats_;
};

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_ITEM_CF_H_
