#include "core/ctr.h"

#include <algorithm>

namespace tencentrec::core {

SituationalCtr::SituationalCtr(Options options)
    : options_(std::move(options)),
      session_length_(options_.session_length < 1 ? 1
                                                  : options_.session_length) {}

int CtrMaxLevel(const Demographics& d) {
  if (d.gender == Demographics::kUnknownGender) return 0;
  if (d.age_band == 0) return 1;
  if (d.region == 0) return 2;
  return 3;
}

uint64_t CtrLevelKey(ItemId item, int level, const Demographics& d) {
  // item in the low 32 bits; attribute fields masked in by level.
  uint64_t key = static_cast<uint64_t>(item) & 0xffffffffULL;
  key |= static_cast<uint64_t>(level) << 62;
  if (level >= 1) key |= static_cast<uint64_t>(d.gender) << 32;
  if (level >= 2) key |= static_cast<uint64_t>(d.age_band) << 36;
  if (level >= 3) key |= static_cast<uint64_t>(d.region) << 44;
  return key;
}

void SituationalCtr::Add(ItemId item, const Demographics& d, EventTime ts,
                         bool click) {
  const int64_t session_id = SessionOf(ts);
  if (session_id > latest_session_) latest_session_ = session_id;
  while (!sessions_.empty() && !InWindow(sessions_.front().id)) {
    sessions_.pop_front();
  }
  Session* session = nullptr;
  for (auto& s : sessions_) {
    if (s.id == session_id) {
      session = &s;
      break;
    }
  }
  if (session == nullptr) {
    if (!sessions_.empty() && session_id < sessions_.front().id) {
      session = &sessions_.front();  // late arrival
    } else {
      sessions_.push_back(Session{});
      sessions_.back().id = session_id;
      session = &sessions_.back();
    }
  }
  const int max_level = CtrMaxLevel(d);
  for (int level = 0; level <= max_level; ++level) {
    Counts& c = session->counts[CtrLevelKey(item, level, d)];
    if (click) {
      c.clicks += 1.0;
    } else {
      c.impressions += 1.0;
    }
  }
}

void SituationalCtr::ProcessAction(const UserAction& action) {
  if (action.action == ActionType::kImpression) {
    Add(action.item, action.demographics, action.timestamp, /*click=*/false);
  } else if (action.action == ActionType::kClick) {
    Add(action.item, action.demographics, action.timestamp, /*click=*/true);
  }
}

void SituationalCtr::RecordImpression(ItemId item, const Demographics& d,
                                      EventTime ts) {
  Add(item, d, ts, /*click=*/false);
}

void SituationalCtr::RecordClick(ItemId item, const Demographics& d,
                                 EventTime ts) {
  Add(item, d, ts, /*click=*/true);
}

SituationalCtr::Counts SituationalCtr::WindowCounts(Key key) const {
  Counts out;
  for (const auto& s : sessions_) {
    if (!InWindow(s.id)) continue;
    auto it = s.counts.find(key);
    if (it != s.counts.end()) {
      out.impressions += it->second.impressions;
      out.clicks += it->second.clicks;
    }
  }
  return out;
}

double SituationalCtr::PredictCtr(ItemId item, const Demographics& d) const {
  // Hierarchical shrinkage: level estimate = (clicks + k·parent) /
  // (impressions + k), starting from the configured base CTR.
  double estimate = options_.base_ctr;
  const int max_level = CtrMaxLevel(d);
  for (int level = 0; level <= max_level; ++level) {
    const Counts c = WindowCounts(CtrLevelKey(item, level, d));
    estimate = (c.clicks + options_.prior_strength * estimate) /
               (c.impressions + options_.prior_strength);
  }
  return estimate;
}

SituationalCtr::Counts SituationalCtr::SituationCounts(
    ItemId item, const Demographics& d) const {
  return WindowCounts(CtrLevelKey(item, CtrMaxLevel(d), d));
}

Recommendations SituationalCtr::RankByCtr(const std::vector<ItemId>& candidates,
                                          const Demographics& d,
                                          size_t n) const {
  Recommendations scored;
  scored.reserve(candidates.size());
  for (ItemId item : candidates) {
    scored.push_back({item, PredictCtr(item, d)});
  }
  std::sort(scored.begin(), scored.end(), ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

}  // namespace tencentrec::core
