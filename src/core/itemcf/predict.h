#ifndef TENCENTREC_CORE_ITEMCF_PREDICT_H_
#define TENCENTREC_CORE_ITEMCF_PREDICT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/topk.h"
#include "core/itemcf/pair_key.h"
#include "core/rating.h"
#include "core/scored.h"

namespace tencentrec::core {

/// The terms of Eq. 2 over a user's recent-k items (§4.3), the one rule
/// both serving paths score by: the in-memory kernels
/// (UserLayer::RecommendForUser) and topo::StoreQuery::RecommendCf, which
/// plans its grouped read of counts between CollectTerms and ScoreTerms. A
/// candidate is an unrated item on a recent item's similar list; its terms
/// are exactly the recent items whose list holds it, so a pair Algorithm 1
/// pruned, or a co-rated item a full list left out, adds no term.
struct PredictionTerms {
  struct Term {
    uint32_t candidate;  ///< index into `candidates`
    uint32_t recent;     ///< index into the `recent` items
  };
  std::vector<ItemId> candidates;  ///< first-seen order
  /// Recent-major, so each candidate's terms come in `recent` order. No
  /// item pair repeats, even unordered: a list holds an id once, and a
  /// candidate (unrated) is never a recent item (rated).
  std::vector<Term> terms;
};

/// Fills `out` from `list_of(size_t r) -> const TopK<ItemId>*`, the similar
/// list of `recent[r]` (nullptr: none).
template <typename ListOfFn>
void CollectTerms(const UserHistory& history, const std::vector<ItemId>& recent,
                  ListOfFn&& list_of, PredictionTerms* out) {
  constexpr uint32_t kRated = ~0u;
  thread_local FlatMap64<uint32_t> slot;  // packed id -> 1 + candidate index
  slot.Clear();
  out->candidates.clear();
  out->terms.clear();
  for (uint32_t r = 0; r < recent.size(); ++r) {
    const TopK<ItemId>* list = list_of(r);
    if (list == nullptr) continue;
    for (size_t i = 0; i < list->size(); ++i) {
      const ItemId p = list->id_at(i);
      uint32_t& s = slot[PackItem(p)];
      if (s == 0) {
        const bool rated = history.RatingOf(p) > 0.0;
        if (!rated) out->candidates.push_back(p);
        s = rated ? kRated : static_cast<uint32_t>(out->candidates.size());
      }
      if (s != kRated) out->terms.push_back({s - 1, r});
    }
  }
}

/// Eq. 2 over `terms`: each candidate's Σ w·r / Σ w over its terms, summed
/// in `recent` order, where w = `weight(t) -> double` is term t's
/// similarity and r the user's rating of its recent item, ranked by
/// PredictedScore. A w ≤ 0 adds nothing; a NaN w, which a caller returns
/// for a count it could not read, drops its candidate. Returns the best `n`
/// in ByRank order. Scratch is thread-local: the sharded executor serves
/// from concurrent query threads.
template <typename WeightFn>
Recommendations ScoreTerms(const UserHistory& history,
                           const std::vector<ItemId>& recent,
                           const PredictionTerms& terms, WeightFn&& weight,
                           size_t n) {
  thread_local std::vector<double> rating, num, den;
  rating.clear();
  for (ItemId q : recent) rating.push_back(history.RatingOf(q));
  num.assign(terms.candidates.size(), 0.0);
  den.assign(terms.candidates.size(), 0.0);
  for (size_t t = 0; t < terms.terms.size(); ++t) {
    const double w = weight(t);
    if (w <= 0.0) continue;
    num[terms.terms[t].candidate] += w * rating[terms.terms[t].recent];
    den[terms.terms[t].candidate] += w;
  }
  Recommendations scored;
  scored.reserve(terms.candidates.size());
  for (size_t c = 0; c < terms.candidates.size(); ++c) {
    if (!(den[c] > 0.0)) continue;  // no positive term, or a NaN one
    scored.push_back({terms.candidates[c], PredictedScore(num[c], den[c])});
  }
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_PREDICT_H_
