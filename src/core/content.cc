#include "core/content.h"

#include <algorithm>
#include <cmath>

namespace tencentrec::core {

ContentBased::ContentBased(Options options) : options_(std::move(options)) {
  if (options_.profile_half_life < 1) options_.profile_half_life = 1;
  decay_lambda_ =
      std::log(2.0) / static_cast<double>(options_.profile_half_life);
}

void ContentBased::RegisterItem(ItemId item, TagVector tags,
                                EventTime published) {
  RemoveItem(item);  // replace semantics
  ItemEntry entry;
  entry.tags = std::move(tags);
  entry.published = published;
  double norm2 = 0.0;
  for (const auto& [tag, w] : entry.tags) norm2 += w * w;
  entry.norm = std::sqrt(norm2);
  for (const auto& [tag, w] : entry.tags) tag_index_[tag].push_back(item);
  items_[item] = std::move(entry);
}

void ContentBased::RemoveItem(ItemId item) {
  auto it = items_.find(item);
  if (it == items_.end()) return;
  for (const auto& [tag, w] : it->second.tags) {
    auto idx = tag_index_.find(tag);
    if (idx == tag_index_.end()) continue;
    auto& list = idx->second;
    list.erase(std::remove(list.begin(), list.end(), item), list.end());
    if (list.empty()) tag_index_.erase(idx);
  }
  items_.erase(it);
}

void ContentBased::DecayProfile(Profile* profile, EventTime now) const {
  if (now <= profile->last_update) return;
  if (profile->weights.empty()) {
    profile->last_update = now;
    return;
  }
  const double factor = std::exp(
      -decay_lambda_ * static_cast<double>(now - profile->last_update));
  for (auto it = profile->weights.begin(); it != profile->weights.end();) {
    it->second *= factor;
    if (it->second < 1e-9) {
      it = profile->weights.erase(it);
    } else {
      ++it;
    }
  }
  profile->last_update = now;
}

void ContentBased::ProcessAction(const UserAction& action) {
  auto item_it = items_.find(action.item);
  if (item_it == items_.end()) return;  // untagged item: nothing to learn

  Profile& profile = profiles_[action.user];
  DecayProfile(&profile, action.timestamp);

  const double w = options_.weights.Weight(action.action);
  if (w > 0.0) {
    for (const auto& [tag, tw] : item_it->second.tags) {
      profile.weights[tag] += w * tw;
    }
  }
  if (profile.seen.size() >= options_.seen_cap) {
    profile.seen.clear();  // cheap cap; old items have likely expired anyway
  }
  profile.seen.insert(action.item);
}

Recommendations ContentBased::RecommendForUser(UserId user, size_t n,
                                               EventTime now) const {
  auto pit = profiles_.find(user);
  if (pit == profiles_.end()) return {};
  const Profile& profile = pit->second;

  // Decay factor applied lazily at query time (profile itself is const).
  double factor = 1.0;
  if (now > profile.last_update) {
    factor = std::exp(-decay_lambda_ *
                      static_cast<double>(now - profile.last_update));
  }

  double profile_norm2 = 0.0;
  for (const auto& [tag, w] : profile.weights) {
    profile_norm2 += (w * factor) * (w * factor);
  }
  if (profile_norm2 <= 0.0) return {};
  const double profile_norm = std::sqrt(profile_norm2);

  // Dot products via the inverted index.
  std::unordered_map<ItemId, double> dots;
  for (const auto& [tag, w] : profile.weights) {
    auto idx = tag_index_.find(tag);
    if (idx == tag_index_.end()) continue;
    for (ItemId item : idx->second) {
      const ItemEntry& entry = items_.at(item);
      if (options_.item_ttl > 0 && now - entry.published > options_.item_ttl) {
        continue;  // expired (old news)
      }
      if (profile.seen.count(item) > 0) continue;
      double item_weight = 0.0;
      for (const auto& [t2, w2] : entry.tags) {
        if (t2 == tag) {
          item_weight = w2;
          break;
        }
      }
      dots[item] += (w * factor) * item_weight;
    }
  }

  Recommendations scored;
  scored.reserve(dots.size());
  for (const auto& [item, dot] : dots) {
    const ItemEntry& entry = items_.at(item);
    if (entry.norm <= 0.0 || dot <= 0.0) continue;
    scored.push_back({item, dot / (profile_norm * entry.norm)});
  }
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

std::vector<std::pair<TagId, double>> ContentBased::ProfileOf(
    UserId user, EventTime now) const {
  auto pit = profiles_.find(user);
  if (pit == profiles_.end()) return {};
  double factor = 1.0;
  if (now > pit->second.last_update) {
    factor = std::exp(-decay_lambda_ *
                      static_cast<double>(now - pit->second.last_update));
  }
  std::vector<std::pair<TagId, double>> out;
  for (const auto& [tag, w] : pit->second.weights) {
    out.emplace_back(tag, w * factor);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace tencentrec::core
