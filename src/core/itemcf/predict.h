#ifndef TENCENTREC_CORE_ITEMCF_PREDICT_H_
#define TENCENTREC_CORE_ITEMCF_PREDICT_H_

#include <algorithm>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/topk.h"
#include "core/rating.h"
#include "core/scored.h"

namespace tencentrec::core {

/// Real-time personalized prediction (Eq. 2 restricted to the user's
/// recent-k items, §4.3), shared by the single-process reference
/// (PracticalItemCf) and the sharded executor (ParallelItemCf) so the two
/// implementations are prediction-identical by construction.
///
/// `similar_items(ItemId) -> const TopK<ItemId>*` supplies candidate
/// generation (nullptr when the item has no list yet);
/// `effective_sim(ItemId, ItemId) -> double` supplies the current
/// (shrinkage-adjusted) similarity used for scoring.
///
/// Scratch (candidate set, rating cache, scored buffer) lives in a
/// thread-local arena reset per call: steady-state queries allocate only
/// the returned Recommendations vector. Thread-local because the sharded
/// executor serves this from concurrent query threads.
template <typename SimilarItemsFn, typename EffectiveSimFn>
Recommendations PredictFromRecent(const UserHistory& history,
                                  const std::vector<ItemId>& recent,
                                  SimilarItemsFn&& similar_items,
                                  EffectiveSimFn&& effective_sim, size_t n) {
  if (recent.empty()) return {};

  struct Scratch {
    Arena arena;
    FlatSet64 seen;
  };
  thread_local Scratch scratch;
  scratch.arena.Reset();
  scratch.seen.Clear();

  // Candidates: similar items of the user's recent items, minus seen ones.
  // The dedup set keys on the packed id; candidate order is insertion order,
  // which the total-order sort below makes irrelevant to the output.
  ArenaVector<ItemId> candidates(&scratch.arena, 64);
  for (ItemId q : recent) {
    const TopK<ItemId>* sims = similar_items(q);
    if (sims == nullptr) continue;
    const size_t m = sims->size();
    for (size_t r = 0; r < m; ++r) {
      if (sims->score_at(r) <= 0.0) continue;
      const ItemId id = sims->id_at(r);
      if (!scratch.seen.Insert(PackItem(id))) continue;  // already a candidate
      if (history.RatingOf(id) > 0.0) continue;  // already rated
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) return {};

  // Eq. 2 restricted to the recent-k set: weighted average of the user's
  // ratings on recent items, weighted by current similarity. The recent
  // ratings are invariant across candidates — look each up once, not once
  // per (candidate, recent) pair.
  ArenaVector<double> recent_ratings(&scratch.arena, recent.size());
  for (ItemId q : recent) recent_ratings.push_back(history.RatingOf(q));
  ArenaVector<ScoredItem> scored(&scratch.arena, candidates.size());
  for (ItemId p : candidates) {
    double num = 0.0;
    double den = 0.0;
    for (size_t qi = 0; qi < recent.size(); ++qi) {
      const double sim = effective_sim(p, recent[qi]);
      if (sim <= 0.0) continue;
      num += sim * recent_ratings[qi];
      den += sim;
    }
    if (den <= 0.0) continue;
    scored.push_back({p, PredictedScore(num, den)});
  }
  std::sort(scored.begin(), scored.end(), ByRank());
  const size_t take = std::min(n, scored.size());
  Recommendations out(scored.begin(), scored.begin() + take);
  return out;
}

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_PREDICT_H_
