#include "core/assoc.h"

#include <algorithm>

namespace tencentrec::core {

AssocRules::AssocRules(Options options)
    : options_(std::move(options)),
      counts_(options_.session_length, options_.window_sessions) {}

void AssocRules::ProcessAction(const UserAction& action) {
  if (options_.weights.Weight(action.action) < options_.min_action_weight) {
    return;
  }
  UserState& state = users_[action.user];

  // Dedup: one occurrence per (user, item) — re-touching an item refreshes
  // its linked-time anchor but adds no support.
  auto existing = state.items.find(action.item);
  const bool first_occurrence = existing == state.items.end();

  if (first_occurrence) {
    counts_.AddItem(action.item, 1.0, action.timestamp);
    // Pair with every linked item the user already has.
    for (const auto& [other, last_ts] : state.items) {
      if (action.timestamp - last_ts > options_.linked_time) continue;
      counts_.AddPair(action.item, other, 1.0, action.timestamp);
      partners_[action.item].insert(other);
      partners_[other].insert(action.item);
    }
    if (state.items.size() >= options_.user_items_cap) {
      // Evict the stalest item to bound per-user state.
      auto oldest = state.items.begin();
      for (auto it = state.items.begin(); it != state.items.end(); ++it) {
        if (it->second < oldest->second) oldest = it;
      }
      state.items.erase(oldest);
    }
  }
  state.items[action.item] = action.timestamp;
}

double AssocRules::Confidence(ItemId from, ItemId to) const {
  const double joint = counts_.PairCount(from, to);
  if (joint < options_.min_support) return 0.0;
  const double base = counts_.ItemCount(from);
  if (base <= 0.0) return 0.0;
  const double conf = joint / base;
  return conf >= options_.min_confidence ? conf : 0.0;
}

Recommendations AssocRules::RecommendForItem(ItemId item, size_t n) const {
  auto pit = partners_.find(item);
  if (pit == partners_.end()) return {};
  Recommendations scored;
  for (ItemId other : pit->second) {
    const double conf = Confidence(item, other);
    if (conf > 0.0) scored.push_back({other, conf});
  }
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

Recommendations AssocRules::RecommendForUser(UserId user, size_t n) const {
  auto uit = users_.find(user);
  if (uit == users_.end()) return {};
  const UserState& state = uit->second;

  std::unordered_map<ItemId, double> best;
  for (const auto& [item, ts] : state.items) {
    auto pit = partners_.find(item);
    if (pit == partners_.end()) continue;
    for (ItemId other : pit->second) {
      if (state.items.count(other) > 0) continue;  // already seen
      const double conf = Confidence(item, other);
      if (conf <= 0.0) continue;
      double& slot = best[other];
      slot = std::max(slot, conf);
    }
  }
  Recommendations scored;
  scored.reserve(best.size());
  for (const auto& [item, conf] : best) scored.push_back({item, conf});
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

}  // namespace tencentrec::core
