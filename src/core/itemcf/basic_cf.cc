#include "core/itemcf/basic_cf.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/flat_map.h"

namespace tencentrec::core {

void BasicItemCf::SetRating(UserId user, ItemId item, double rating) {
  ratings_[user][item] = rating;
}

double BasicItemCf::RatingOf(UserId user, ItemId item) const {
  auto uit = ratings_.find(user);
  if (uit == ratings_.end()) return 0.0;
  auto iit = uit->second.find(item);
  return iit == uit->second.end() ? 0.0 : iit->second;
}

void BasicItemCf::ComputeSimilarities() {
  similarities_.clear();
  neighbors_.clear();

  // Accumulate numerators over co-rating users and per-item norms in flat
  // open-addressing tables keyed by the packed pair/item (DESIGN.md §15) —
  // the O(users · items-per-user²) inner loop probes contiguous arrays
  // instead of chasing unordered_map nodes. Per-user scratch lives in an
  // arena reset per user, so the loop allocates only on table growth.
  FlatMap64<double> numerators;
  FlatMap64<double> norms;  // Σr² (cosine) or Σr (Eq. 4)
  Arena arena;

  struct Rated {
    ItemId item;
    double rating;
  };
  for (const auto& [user, items] : ratings_) {
    arena.Reset();
    ArenaVector<Rated> rated(&arena, items.size());
    for (const auto& [item, r] : items) rated.push_back({item, r});
    for (const Rated& row : rated) {
      norms[PackItem(row.item)] +=
          measure_ == SimilarityMeasure::kCosine ? row.rating * row.rating
                                                 : row.rating;
    }
    for (size_t a = 0; a < rated.size(); ++a) {
      for (size_t b = a + 1; b < rated.size(); ++b) {
        const double contrib =
            measure_ == SimilarityMeasure::kCosine
                ? rated[a].rating * rated[b].rating
                : std::min(rated[a].rating, rated[b].rating);
        numerators[PackPair(rated[a].item, rated[b].item)] += contrib;
      }
    }
  }

  numerators.ForEach([&](uint64_t packed, double num) {
    const PairKey pair{static_cast<ItemId>(packed >> 32),
                       static_cast<ItemId>(packed & 0xffffffffull)};
    const double* na = norms.Find(PackItem(pair.lo));
    const double* nb = norms.Find(PackItem(pair.hi));
    if (na == nullptr || *na <= 0.0 || nb == nullptr || *nb <= 0.0) return;
    double sim = num / (std::sqrt(*na) * std::sqrt(*nb));
    if (support_shrinkage_ > 0.0) sim *= num / (num + support_shrinkage_);
    if (sim <= 0.0) return;
    similarities_[pair] = sim;
    neighbors_[pair.lo].emplace_back(pair.hi, sim);
    neighbors_[pair.hi].emplace_back(pair.lo, sim);
  });
  for (auto& [item, list] : neighbors_) {
    std::sort(list.begin(), list.end(), [](const auto& x, const auto& y) {
      if (x.second != y.second) return x.second > y.second;
      return x.first < y.first;
    });
  }
}

double BasicItemCf::Similarity(ItemId a, ItemId b) const {
  auto it = similarities_.find(PairKey(a, b));
  return it == similarities_.end() ? 0.0 : it->second;
}

Recommendations BasicItemCf::NeighborsOf(ItemId item, size_t k) const {
  Recommendations out;
  auto nit = neighbors_.find(item);
  if (nit == neighbors_.end()) return out;
  for (const auto& [other, sim] : nit->second) {
    if (out.size() >= k) break;
    out.push_back({other, sim});
  }
  return out;
}

Recommendations BasicItemCf::RecommendForUser(UserId user, size_t n,
                                              size_t k) const {
  auto uit = ratings_.find(user);
  if (uit == ratings_.end()) return {};
  const auto& rated = uit->second;

  // Candidates: neighbours of rated items.
  std::unordered_map<ItemId, bool> candidates;
  for (const auto& [item, r] : rated) {
    auto nit = neighbors_.find(item);
    if (nit == neighbors_.end()) continue;
    size_t taken = 0;
    for (const auto& [other, sim] : nit->second) {
      if (taken++ >= k) break;
      if (rated.count(other) > 0) continue;
      candidates[other] = true;
    }
  }

  Recommendations scored;
  for (const auto& [p, unused] : candidates) {
    // Eq. 2: weighted average over the k neighbours of p the user rated.
    auto nit = neighbors_.find(p);
    if (nit == neighbors_.end()) continue;
    double num = 0.0;
    double den = 0.0;
    size_t taken = 0;
    for (const auto& [q, sim] : nit->second) {
      if (taken++ >= k) break;
      auto rit = rated.find(q);
      if (rit == rated.end()) continue;
      num += sim * rit->second;
      den += sim;
    }
    if (den <= 0.0) continue;
    scored.push_back({p, PredictedScore(num, den)});
  }
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

}  // namespace tencentrec::core
