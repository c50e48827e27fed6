#ifndef TENCENTREC_CORE_SCORED_H_
#define TENCENTREC_CORE_SCORED_H_

#include <cmath>
#include <vector>

#include "core/action.h"

namespace tencentrec::core {

/// A recommendation candidate with its predicted score. All algorithms
/// return descending-score lists of these.
struct ScoredItem {
  ItemId item = 0;
  double score = 0.0;

  bool operator==(const ScoredItem&) const = default;
};

using Recommendations = std::vector<ScoredItem>;

/// The rank order of every scored list: score descending, then item
/// ascending, so equal scores rank the same way on every run. A function
/// object, so std::sort inlines it.
struct ByRank {
  bool operator()(const ScoredItem& a, const ScoredItem& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  }
};

/// Eq. 2's predicted rating num/den (Σ sim·r over Σ sim), tilted by the
/// similarity mass so that a candidate related to several of the user's
/// items beats one related to a single item with the same prediction. Item
/// CF's serving paths reach it only through core::ScoreTerms
/// (core/itemcf/predict.h); BasicItemCf and UserBasedCf call it directly.
inline double PredictedScore(double num, double den) {
  return (num / den) * (1.0 + std::log1p(den));
}

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_SCORED_H_
