#ifndef TENCENTREC_CORE_ITEMCF_ITEM_CF_H_
#define TENCENTREC_CORE_ITEMCF_ITEM_CF_H_

#include <vector>

#include "common/topk.h"
#include "core/itemcf/layers.h"
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
///
/// It is the one-shard case of ParallelItemCf: one UserLayer, one PairLayer
/// and one SimilarLists (core/itemcf/layers.h), with itemCounts and
/// pairCounts in the pair layer's single WindowedCounts.
class PracticalItemCf {
 public:
  using Options = ItemCfOptions;
  using Stats = ItemCfStats;

  explicit PracticalItemCf(Options options);

  /// Ingests one user action, updating all three layers.
  void ProcessAction(const UserAction& action);

  /// Current similarity from windowed counts (Eq. 5/10).
  double Similarity(ItemId a, ItemId b) const {
    return pairs_.counts().Similarity(a, b);
  }

  /// Similarity with support shrinkage applied (what lists/ranking use).
  double EffectiveSimilarity(ItemId a, ItemId b) const;

  /// The top-K similar-items table of `item` (nullptr if none yet).
  const TopK<ItemId>* SimilarItems(ItemId item) const {
    return lists_.Find(item);
  }

  /// Predicts ratings for unseen items and returns the best `n` (Eq. 2,
  /// with N_k(i_p) replaced by the user's recent-k items per §4.3): each
  /// candidate sums over the recent items whose similar list holds it,
  /// weighted by EffectiveSimilarity (core::CollectTerms, ScoreTerms) —
  /// the rule topo::StoreQuery::RecommendCf serves by. Items the user
  /// already rated are excluded. May return fewer than `n`; the caller
  /// complements with the DB algorithm (HybridRecommender does).
  Recommendations RecommendForUser(UserId user, size_t n) const;

  /// The user's recent-k item set (exposed for the hybrid recommender).
  std::vector<ItemId> RecentItemsOf(UserId user) const {
    return users_.RecentItemsOf(user);
  }
  double UserRating(UserId user, ItemId item) const {
    return users_.UserRating(user, item);
  }

  Stats stats() const {
    Stats stats = users_.stats();
    stats += pairs_.stats();
    return stats;
  }
  const WindowedCounts& counts() const { return pairs_.counts(); }
  const Options& options() const { return options_; }

  /// True if the pair is currently pruned (test hook).
  bool IsPruned(ItemId a, ItemId b) const { return pairs_.IsPruned(a, b); }

 private:
  Options options_;
  UserLayer users_;
  PairLayer pairs_;
  SimilarLists lists_;
};

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_ITEM_CF_H_
