#ifndef TENCENTREC_CORE_ITEMCF_LAYERS_H_
#define TENCENTREC_CORE_ITEMCF_LAYERS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/topk.h"
#include "core/itemcf/pair_key.h"
#include "core/itemcf/predict.h"
#include "core/itemcf/window_counts.h"
#include "core/rating.h"
#include "core/scored.h"

namespace tencentrec::core {

/// Algorithm knobs of the practical item-based CF (§4.1), shared verbatim by
/// the serial PracticalItemCf and the sharded ParallelItemCf.
struct ItemCfOptions {
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

/// Counters for the ablation benches: how much work pruning saved etc. The
/// user layer counts `actions`, the pair layer the rest; an executor sums
/// its layers'.
struct ItemCfStats {
  int64_t actions = 0;
  int64_t pair_updates = 0;          ///< pair counters actually updated
  int64_t pair_updates_pruned = 0;   ///< skipped because pair was pruned
  int64_t pairs_pruned = 0;          ///< prune decisions taken

  ItemCfStats& operator+=(const ItemCfStats& o) {
    actions += o.actions;
    pair_updates += o.pair_updates;
    pair_updates_pruned += o.pair_updates_pruned;
    pairs_pruned += o.pairs_pruned;
    return *this;
  }
};

/// ln(1/δ) for Algorithm 1's confidence δ, the numerator of Eq. 9's ε. A δ
/// outside (0, 1) falls back to 0.05. Both in-memory executors and the
/// topology's CfPairBolt take their constant from here.
inline double HoeffdingLnInvDelta(double delta) {
  if (delta <= 0.0 || delta >= 1.0) delta = 0.05;
  return std::log(1.0 / delta);
}

/// Eq. 9 with R = 1 (similarity scores live in [0, 1]): after
/// `observations` scores of a pair, the latest `sim`, the pair can no longer
/// enter a list whose admission threshold is `threshold` once
/// ε = sqrt(ln(1/δ) / 2n) < threshold − sim.
inline bool HoeffdingPrunes(double ln_inv_delta, int64_t observations,
                            double threshold, double sim) {
  const double epsilon = std::sqrt(
      ln_inv_delta / (2.0 * static_cast<double>(observations)));
  return epsilon < threshold - sim;
}

/// Eq. 5 scaled by support shrinkage: sim · pairCount/(pairCount + s), the
/// score lists and ranking use (ItemCfOptions::support_shrinkage).
inline double ShrunkSimilarity(double pair_count, double count_a,
                               double count_b, double shrinkage) {
  double sim = ItemSimilarity(pair_count, count_a, count_b);
  if (sim > 0.0 && shrinkage > 0.0) {
    sim *= pair_count / (pair_count + shrinkage);
  }
  return sim;
}

/// Rows keyed by id at stable addresses (DESIGN.md §15): an open-addressing
/// index of packed ids into 1-based slots of a deque. Slot 0 is the flat
/// table's zero value and means "absent"; the deque never moves a row, so
/// references and the `const TopK*` that SimilarItems hands out stay valid
/// across inserts.
template <typename Row>
class StableRows {
 public:
  /// The row of `key`, constructing it from `args` on first use.
  template <typename... Args>
  Row& GetOrCreate(uint64_t key, Args&&... args) {
    uint32_t& slot = index_[key];
    if (slot == 0) {
      rows_.emplace_back(std::forward<Args>(args)...);
      slot = static_cast<uint32_t>(rows_.size());
    }
    return rows_[slot - 1];
  }

  const Row* Find(uint64_t key) const {
    const uint32_t* slot = index_.Find(key);
    return slot == nullptr ? nullptr : &rows_[*slot - 1];
  }
  Row* Find(uint64_t key) {
    return const_cast<Row*>(static_cast<const StableRows*>(this)->Find(key));
  }

  void Prefetch(uint64_t key) const { index_.Prefetch(key); }

 private:
  FlatMap64<uint32_t> index_;
  std::deque<Row> rows_;
};

/// Layer 1 of Fig. 4: the histories of the users it owns. Applies the
/// max-weight rating rule and the linked-time co-rating deltas (Eq. 3–4)
/// through UserHistory::Apply, and serves the recent-k and rating reads.
/// PracticalItemCf owns one; each ParallelItemCf user shard owns one.
class UserLayer {
 public:
  explicit UserLayer(const ItemCfOptions& options)
      : weights_(options.weights),
        linked_time_(options.linked_time),
        history_ttl_(options.history_ttl),
        recent_k_(options.recent_k) {}

  /// Ingests `action` into its user's history. `on_rating(item,
  /// rating_delta, new_rating)` fires first, then `on_pair(other,
  /// co_delta)` once per linked item, in history insertion order (see
  /// UserHistory::Apply).
  template <typename OnRating, typename OnPair>
  void Apply(const UserAction& action, OnRating&& on_rating,
             OnPair&& on_pair) {
    ++stats_.actions;
    UserHistory& history = histories_.GetOrCreate(PackUser(action.user));
    if (history_ttl_ > 0) {
      history.EvictOlderThan(action.timestamp - history_ttl_);
    }
    history.Apply(action, weights_, linked_time_,
                  std::forward<OnRating>(on_rating),
                  std::forward<OnPair>(on_pair));
  }

  /// The user's recent-k item set (§4.3), newest first.
  std::vector<ItemId> RecentItemsOf(UserId user) const {
    const UserHistory* history = histories_.Find(PackUser(user));
    return history == nullptr ? std::vector<ItemId>{} : RecentOf(*history);
  }
  double UserRating(UserId user, ItemId item) const {
    const UserHistory* history = histories_.Find(PackUser(user));
    return history == nullptr ? 0.0 : history->RatingOf(item);
  }

  /// Eq. 2 over the user's recent-k items (CollectTerms, then ScoreTerms),
  /// with terms from `similar_items(ItemId) -> const TopK<ItemId>*` and
  /// each weighted by `effective_sim(ItemId, ItemId) -> double`.
  template <typename SimilarItemsFn, typename EffectiveSimFn>
  Recommendations RecommendForUser(UserId user, size_t n,
                                   SimilarItemsFn&& similar_items,
                                   EffectiveSimFn&& effective_sim) const {
    const UserHistory* history = histories_.Find(PackUser(user));
    if (history == nullptr) return {};
    const std::vector<ItemId> recent = RecentOf(*history);
    thread_local PredictionTerms terms;
    CollectTerms(*history, recent,
                 [&](size_t r) { return similar_items(recent[r]); }, &terms);
    return ScoreTerms(*history, recent, terms, [&](size_t t) {
      const PredictionTerms::Term& term = terms.terms[t];
      return effective_sim(terms.candidates[term.candidate],
                           recent[term.recent]);
    }, n);
  }

  const ItemCfStats& stats() const { return stats_; }

 private:
  std::vector<ItemId> RecentOf(const UserHistory& history) const {
    const size_t k = recent_k_ > 0 ? static_cast<size_t>(recent_k_)
                                   : history.size();
    return history.RecentItems(k);
  }

  ActionWeights weights_;
  EventTime linked_time_;
  EventTime history_ttl_;
  int recent_k_;
  StableRows<UserHistory> histories_;
  ItemCfStats stats_;
};

/// Each item's top-K similar-items list, Algorithm 1's admission threshold
/// t included (TopK::Threshold).
class SimilarLists {
 public:
  explicit SimilarLists(int top_k) : top_k_(static_cast<size_t>(top_k)) {}

  /// Upserts `other` with `sim` into `item`'s list, creating the list.
  void Update(ItemId item, ItemId other, double sim) {
    lists_.GetOrCreate(PackItem(item), top_k_).Update(other, sim);
  }
  /// Drops `other` from `item`'s list, if both exist.
  void Erase(ItemId item, ItemId other) {
    if (TopK<ItemId>* list = lists_.Find(PackItem(item))) list->Erase(other);
  }
  /// `item`'s admission threshold: 0 while it has no list or the list is
  /// not full.
  double Threshold(ItemId item) const {
    const TopK<ItemId>* list = Find(item);
    return list == nullptr ? 0.0 : list->Threshold();
  }

  /// `item`'s list, or nullptr if it has none yet.
  const TopK<ItemId>* Find(ItemId item) const {
    return lists_.Find(PackItem(item));
  }
  void Prefetch(ItemId item) const { lists_.Prefetch(PackItem(item)); }

 private:
  size_t top_k_;
  StableRows<TopK<ItemId>> lists_;
};

/// Layers 2+3 of Fig. 4 for the pairs it owns: pairCount over its windowed
/// counts (Eq. 6–8, 10), the similarity (Eq. 5 with shrinkage), the upkeep
/// of both items' similar lists, and Hoeffding pruning (Eq. 9) — Algorithm 1
/// lines 3–17, with n_ij and the pruned set L.
///
/// itemCounts and the lists belong to the caller's *item side*, a template
/// parameter so the per-delta path has no indirect call. It provides
///   double ItemCount(ItemId item);
///   void Update(ItemId item, ItemId other, double sim);   // upsert
///   double Threshold(ItemId item);                        // t of the list
///   void Erase(ItemId item, ItemId other);
/// PracticalItemCf's reads the itemCounts of this layer's own counts and
/// writes one SimilarLists; ParallelItemCf's locks a shared stripe per call.
class PairLayer {
 public:
  explicit PairLayer(const ItemCfOptions& options)
      : enable_pruning_(options.enable_pruning),
        ln_inv_delta_(HoeffdingLnInvDelta(options.hoeffding_delta)),
        shrinkage_(options.support_shrinkage),
        counts_(options.session_length, options.window_sessions) {}

  /// Algorithm 1 for one co-rating delta of the pair (i, j), from the
  /// action on `i` at `ts`.
  template <typename ItemSide>
  void Update(ItemId i, ItemId j, double co_delta, EventTime ts,
              ItemSide& items) {
    const uint64_t key = PackPair(i, j);
    if (enable_pruning_ && pruned_.Contains(key)) {
      // Line 4: pruned pairs skip the whole update — this is the
      // computation the pruning exists to save.
      ++stats_.pair_updates_pruned;
      return;
    }

    counts_.AddPair(i, j, co_delta, ts);
    ++stats_.pair_updates;

    const double pc = counts_.PairCount(i, j);
    const double count_i = items.ItemCount(i);
    const double count_j = items.ItemCount(j);
    const double sim = ShrunkSimilarity(pc, count_i, count_j, shrinkage_);

    // Maintain both items' similar-items lists.
    items.Update(i, j, sim);
    items.Update(j, i, sim);

    if (!enable_pruning_) return;

    const uint32_t n = ++observations_[key];
    // Pruning is bidirectional: use the min threshold of the two lists
    // (line 12). Either list not yet full -> threshold 0 -> nothing can be
    // pruned (everything is still admissible).
    const double t = std::min(items.Threshold(i), items.Threshold(j));
    if (t <= 0.0) return;
    if (HoeffdingPrunes(ln_inv_delta_, n, t, sim)) {
      pruned_.Insert(key);
      ++stats_.pairs_pruned;
      // The pair can no longer enter either list; drop any stale entry. If
      // the erase shrinks a full list below K, TopK::Threshold() falls back
      // to 0 and pruning against that list pauses until the list refills —
      // the conservative reopen (an under-full list admits any positive
      // score, so keeping the old threshold would over-prune). Serially
      // the entry is usually absent already (its own update just refreshed
      // the score, making it the threshold), but the sharded executor's
      // racy similarity reads make the erase real.
      items.Erase(i, j);
      items.Erase(j, i);
    }
  }

  /// Starts the miss on the pair's n_ij slot that Update takes under
  /// pruning.
  void Prefetch(ItemId i, ItemId j) const {
    if (enable_pruning_) observations_.Prefetch(PackPair(i, j));
  }

  /// Eq. 5/10 from this layer's pairCount and `item_count(ItemId) ->
  /// double`.
  template <typename ItemCountFn>
  double Similarity(ItemId a, ItemId b, ItemCountFn&& item_count) const {
    return ItemSimilarity(counts_.PairCount(a, b), item_count(a),
                          item_count(b));
  }
  /// Similarity with support shrinkage applied (what lists/ranking use).
  template <typename ItemCountFn>
  double EffectiveSimilarity(ItemId a, ItemId b,
                             ItemCountFn&& item_count) const {
    const double pc = counts_.PairCount(a, b);
    if (pc <= 0.0) return 0.0;
    return ShrunkSimilarity(pc, item_count(a), item_count(b), shrinkage_);
  }

  bool IsPruned(ItemId a, ItemId b) const {
    return pruned_.Contains(PackPair(a, b));
  }

  WindowedCounts& counts() { return counts_; }
  const WindowedCounts& counts() const { return counts_; }
  const ItemCfStats& stats() const { return stats_; }

 private:
  bool enable_pruning_;
  double ln_inv_delta_;
  double shrinkage_;
  WindowedCounts counts_;
  /// n_ij of Algorithm 1: observations of each pair's similarity.
  FlatMap64<uint32_t> observations_;
  /// L_i of Algorithm 1, stored canonically per packed pair.
  FlatSet64 pruned_;
  ItemCfStats stats_;
};

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_LAYERS_H_
