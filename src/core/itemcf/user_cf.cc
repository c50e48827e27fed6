#include "core/itemcf/user_cf.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace tencentrec::core {

size_t UserBasedCf::UserPairKeyHash::operator()(const UserPairKey& k) const {
  return static_cast<size_t>(
      HashCombine(HashInt(static_cast<uint64_t>(k.lo)),
                  HashInt(static_cast<uint64_t>(k.hi))));
}

void UserBasedCf::SetRating(UserId user, ItemId item, double rating) {
  ratings_[user][item] = rating;
}

double UserBasedCf::RatingOf(UserId user, ItemId item) const {
  auto uit = ratings_.find(user);
  if (uit == ratings_.end()) return 0.0;
  auto iit = uit->second.find(item);
  return iit == uit->second.end() ? 0.0 : iit->second;
}

void UserBasedCf::ComputeSimilarities() {
  similarities_.clear();
  neighbors_.clear();
  item_raters_.clear();

  // Invert: item -> raters, then accumulate pair dot products per item.
  std::unordered_map<UserId, double> norms;  // Σ r² per user
  for (const auto& [user, items] : ratings_) {
    for (const auto& [item, r] : items) {
      if (r <= 0.0) continue;
      item_raters_[item].emplace_back(user, r);
      norms[user] += r * r;
    }
  }
  std::unordered_map<UserPairKey, double, UserPairKeyHash> dots;
  for (const auto& [item, raters] : item_raters_) {
    for (size_t a = 0; a < raters.size(); ++a) {
      for (size_t b = a + 1; b < raters.size(); ++b) {
        dots[UserPairKey(raters[a].first, raters[b].first)] +=
            raters[a].second * raters[b].second;
      }
    }
  }
  for (const auto& [pair, dot] : dots) {
    const double na = norms[pair.lo];
    const double nb = norms[pair.hi];
    if (na <= 0.0 || nb <= 0.0) continue;
    double sim = dot / (std::sqrt(na) * std::sqrt(nb));
    if (support_shrinkage_ > 0.0) sim *= dot / (dot + support_shrinkage_);
    if (sim <= 0.0) continue;
    similarities_[pair] = sim;
    neighbors_[pair.lo].emplace_back(pair.hi, sim);
    neighbors_[pair.hi].emplace_back(pair.lo, sim);
  }
  for (auto& [user, list] : neighbors_) {
    std::sort(list.begin(), list.end(), [](const auto& x, const auto& y) {
      if (x.second != y.second) return x.second > y.second;
      return x.first < y.first;
    });
  }
}

double UserBasedCf::UserSimilarity(UserId a, UserId b) const {
  auto it = similarities_.find(UserPairKey(a, b));
  return it == similarities_.end() ? 0.0 : it->second;
}

Recommendations UserBasedCf::RecommendForUser(UserId user, size_t n,
                                              size_t k) const {
  auto uit = ratings_.find(user);
  if (uit == ratings_.end()) return {};
  const auto& rated = uit->second;
  auto nit = neighbors_.find(user);
  if (nit == neighbors_.end()) return {};

  std::unordered_map<ItemId, double> numerator;
  std::unordered_map<ItemId, double> denominator;
  size_t taken = 0;
  for (const auto& [neighbor, sim] : nit->second) {
    if (taken++ >= k) break;
    auto rit = ratings_.find(neighbor);
    if (rit == ratings_.end()) continue;
    for (const auto& [item, r] : rit->second) {
      if (r <= 0.0) continue;
      if (rated.count(item) > 0) continue;
      numerator[item] += sim * r;
      denominator[item] += sim;
    }
  }

  Recommendations scored;
  scored.reserve(numerator.size());
  for (const auto& [item, num] : numerator) {
    const double den = denominator[item];
    if (den <= 0.0) continue;
    scored.push_back({item, PredictedScore(num, den)});
  }
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

}  // namespace tencentrec::core
