#include "core/demographic.h"

#include <algorithm>

namespace tencentrec::core {

DemographicRecommender::DemographicRecommender(Options options)
    : options_(std::move(options)),
      session_length_(options_.session_length < 1 ? 1
                                                  : options_.session_length) {}

void DemographicRecommender::Add(GroupId group, ItemId item, double delta,
                                 int64_t session_id) {
  GroupCounts& gc = groups_[group];
  // Expire old sessions for this group.
  while (!gc.sessions.empty() && !InWindow(gc.sessions.front().id)) {
    gc.sessions.pop_front();
  }
  for (auto& s : gc.sessions) {
    if (s.id == session_id) {
      s.counts[item] += delta;
      return;
    }
  }
  if (!gc.sessions.empty() && session_id < gc.sessions.front().id) {
    // Out-of-window late arrival: fold into the oldest live session.
    gc.sessions.front().counts[item] += delta;
    return;
  }
  Session s;
  s.id = session_id;
  s.counts[item] += delta;
  gc.sessions.push_back(std::move(s));
}

void DemographicRecommender::ProcessAction(const UserAction& action) {
  const double w = options_.weights.Weight(action.action);
  if (w <= 0.0) return;
  const int64_t session = SessionOf(action.timestamp);
  if (session > latest_session_) latest_session_ = session;

  const GroupId group = DemographicGroup(action.demographics);
  Add(0, action.item, w, session);  // global group gets everything
  if (group != 0) Add(group, action.item, w, session);
}

Recommendations DemographicRecommender::HotItems(GroupId group,
                                                 size_t n) const {
  auto git = groups_.find(group);
  if (git == groups_.end() || git->second.sessions.empty()) {
    // Unknown or empty group: global fallback (unless global itself failed).
    if (group == 0) return {};
    return HotItems(0, n);
  }

  std::unordered_map<ItemId, double> merged;
  for (const auto& s : git->second.sessions) {
    if (!InWindow(s.id)) continue;
    for (const auto& [item, c] : s.counts) merged[item] += c;
  }
  Recommendations scored;
  scored.reserve(merged.size());
  for (const auto& [item, c] : merged) {
    if (c > 0.0) scored.push_back({item, c});
  }
  if (scored.empty() && group != 0) return HotItems(0, n);
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

double DemographicRecommender::Popularity(GroupId group, ItemId item) const {
  auto git = groups_.find(group);
  if (git == groups_.end()) return 0.0;
  double sum = 0.0;
  for (const auto& s : git->second.sessions) {
    if (!InWindow(s.id)) continue;
    auto it = s.counts.find(item);
    if (it != s.counts.end()) sum += it->second;
  }
  return sum;
}

}  // namespace tencentrec::core
