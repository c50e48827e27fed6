#include "sim/arms.h"

#include <algorithm>
#include <unordered_set>

namespace tencentrec::sim {

namespace {

/// Content tags of a simulated item: its genre plus a finer subtopic, so CB
/// can distinguish items within a genre.
core::TagVector TagsOf(const SimItem& item) {
  const core::TagId genre_tag = item.genre;
  const core::TagId subtopic_tag =
      1000 + item.genre * 16 + static_cast<core::TagId>(item.id % 4);
  return {{genre_tag, 1.0}, {subtopic_tag, 0.7}};
}

void AppendComplement(core::Recommendations* out,
                      const core::Recommendations& complement,
                      const std::function<bool(core::ItemId)>& filter,
                      size_t n) {
  std::unordered_set<core::ItemId> have;
  for (const auto& s : *out) have.insert(s.item);
  for (const auto& h : complement) {
    if (out->size() >= n) break;
    if (have.count(h.item) > 0) continue;
    if (filter && !filter(h.item)) continue;
    out->push_back(h);
  }
}

}  // namespace

// --- StreamingCfArm ---------------------------------------------------------

core::Recommendations StreamingCfArm::Recommend(core::UserId user,
                                                const core::Demographics& d,
                                                size_t n, EventTime now) {
  (void)now;
  return hybrid_.Recommend(user, d, n);
}

core::Recommendations StreamingCfArm::RecommendForContext(
    core::UserId user, const core::Demographics& d, core::ItemId context,
    const std::function<bool(core::ItemId)>& filter, size_t n, EventTime now) {
  (void)now;
  // Candidates come from two real-time sources (§6.4: "we first check the
  // user's real-time demands that whether the user is recently interested
  // in some candidates"):
  //  - the context item's similar-items list;
  //  - the similar-items lists of the user's recent-k items (their live
  //    interests) — crucial for sparse positions whose filter discards most
  //    of the context list.
  // Scores are recomputed from the live windowed counts (list entries may
  // carry stale scores from when their support was different).
  const std::vector<core::ItemId> recent = hybrid_.cf().RecentItemsOf(user);
  std::unordered_set<core::ItemId> candidates;
  auto gather = [&](core::ItemId source) {
    const auto* sims = hybrid_.cf().SimilarItems(source);
    if (sims == nullptr) return;
    for (const auto& entry : sims->entries()) {
      if (entry.id == context) continue;
      if (filter && !filter(entry.id)) continue;
      candidates.insert(entry.id);
    }
  };
  gather(context);
  for (core::ItemId q : recent) gather(q);

  core::Recommendations out;
  out.reserve(candidates.size());
  for (core::ItemId cand : candidates) {
    const double sim_ctx = hybrid_.cf().EffectiveSimilarity(context, cand);
    double sim_recent = 0.0;
    for (core::ItemId q : recent) {
      if (q == cand) {
        sim_recent = 0.0;  // never re-recommend a just-touched item
        break;
      }
      sim_recent =
          std::max(sim_recent, hybrid_.cf().EffectiveSimilarity(cand, q));
    }
    const double score = sim_ctx + 1.0 * sim_recent;
    if (score <= 0.0) continue;
    out.push_back({cand, score});
  }
  std::sort(out.begin(), out.end(), core::ByRank());
  if (out.size() > n) out.resize(n);
  // DB complement for whatever the real-time sources could not fill (§4.2).
  if (out.size() < n) {
    AppendComplement(&out, hybrid_.db().RecommendForUser(d, 400), filter, n);
  }
  return out;
}

// --- PeriodicCfArm ----------------------------------------------------------

void PeriodicCfArm::MaybeRetrain(EventTime now) {
  if (last_retrain_ >= 0 && now - last_retrain_ < retrain_period_) return;
  model_.ComputeSimilarities();
  popularity_snapshot_.clear();
  popularity_snapshot_.reserve(staging_popularity_.size());
  for (const auto& [item, count] : staging_popularity_) {
    popularity_snapshot_.push_back({item, count});
  }
  std::sort(popularity_snapshot_.begin(), popularity_snapshot_.end(),
            core::ByRank());
  if (popularity_snapshot_.size() > 200) popularity_snapshot_.resize(200);
  last_retrain_ = now;
}

void PeriodicCfArm::ObserveAction(const core::UserAction& action) {
  MaybeRetrain(action.timestamp);
  const double w = weights_.Weight(action.action);
  if (w <= 0.0) return;
  auto& seen = seen_[action.user];
  SeenItem& entry = seen[action.item];
  entry.last = action.timestamp;
  if (w > entry.rating) {
    entry.rating = w;
    model_.SetRating(action.user, action.item, w);
  }
  if (seen.size() > per_user_cap_) {
    auto oldest = seen.begin();
    for (auto it = seen.begin(); it != seen.end(); ++it) {
      if (it->second.last < oldest->second.last) oldest = it;
    }
    model_.SetRating(action.user, oldest->first, 0.0);
    seen.erase(oldest);
  }
  staging_popularity_[action.item] += w;
}

core::Recommendations PeriodicCfArm::Recommend(core::UserId user,
                                               const core::Demographics& d,
                                               size_t n, EventTime now) {
  (void)d;
  MaybeRetrain(now);
  core::Recommendations out = model_.RecommendForUser(user, n);
  if (out.size() < n) {
    // Popularity fallback, as of the last offline build.
    core::Recommendations fallback;
    const auto& seen = seen_[user];
    for (const auto& p : popularity_snapshot_) {
      if (seen.count(p.item) > 0) continue;
      fallback.push_back(p);
    }
    AppendComplement(&out, fallback, nullptr, n);
  }
  return out;
}

core::Recommendations PeriodicCfArm::RecommendForContext(
    core::UserId user, const core::Demographics& d, core::ItemId context,
    const std::function<bool(core::ItemId)>& filter, size_t n, EventTime now) {
  (void)d;
  MaybeRetrain(now);
  core::Recommendations out;
  for (const auto& neighbor : model_.NeighborsOf(context, n * 10)) {
    if (filter && !filter(neighbor.item)) continue;
    out.push_back(neighbor);
    if (out.size() >= n) break;
  }
  if (out.size() < n) {
    core::Recommendations fallback;
    const auto& seen = seen_[user];
    for (const auto& p : popularity_snapshot_) {
      if (seen.count(p.item) > 0) continue;
      fallback.push_back(p);
    }
    AppendComplement(&out, fallback, filter, n);
  }
  return out;
}

// --- StreamingCbArm ---------------------------------------------------------

void StreamingCbArm::OnNewItem(const SimItem& item) {
  cb_.RegisterItem(item.id, TagsOf(item), item.published);
}

core::Recommendations StreamingCbArm::Recommend(core::UserId user,
                                                const core::Demographics& d,
                                                size_t n, EventTime now) {
  core::Recommendations out = cb_.RecommendForUser(user, n, now);
  if (out.size() < n) {
    AppendComplement(&out, db_.RecommendForUser(d, n * 4), nullptr, n);
  }
  return out;
}

// --- PeriodicCbArm ----------------------------------------------------------

void PeriodicCbArm::MaybeRefresh(EventTime now) {
  if (last_refresh_ >= 0 && now - last_refresh_ < refresh_period_) return;
  serving_ = staging_;       // model snapshot (profiles + catalog)
  serving_db_ = staging_db_; // popularity snapshot
  last_refresh_ = now;
}

void PeriodicCbArm::ObserveAction(const core::UserAction& action) {
  MaybeRefresh(action.timestamp);
  staging_.ProcessAction(action);
  staging_db_.ProcessAction(action);
}

void PeriodicCbArm::OnNewItem(const SimItem& item) {
  // New items reach the staging catalog immediately, the serving catalog
  // only at the next refresh — the core disadvantage of periodic updates
  // under item churn.
  staging_.RegisterItem(item.id, TagsOf(item), item.published);
}

core::Recommendations PeriodicCbArm::Recommend(core::UserId user,
                                               const core::Demographics& d,
                                               size_t n, EventTime now) {
  MaybeRefresh(now);
  // Serve from the snapshot, evaluated at its own freshness horizon.
  core::Recommendations out = serving_.RecommendForUser(user, n, now);
  if (out.size() < n) {
    AppendComplement(&out, serving_db_.RecommendForUser(d, n * 4), nullptr, n);
  }
  return out;
}

// --- PeriodicCtrArm ---------------------------------------------------------

void PeriodicCtrArm::MaybeRefresh(EventTime now) {
  if (last_refresh_ >= 0 && now - last_refresh_ < refresh_period_) return;
  serving_ = staging_;
  last_refresh_ = now;
}

void PeriodicCtrArm::ObserveAction(const core::UserAction& action) {
  MaybeRefresh(action.timestamp);
  staging_.ProcessAction(action);
}

core::Recommendations PeriodicCtrArm::RankCandidates(
    const std::vector<core::ItemId>& candidates, const core::Demographics& d,
    size_t n, EventTime now) {
  MaybeRefresh(now);
  return serving_.RankByCtr(candidates, d, n);
}

}  // namespace tencentrec::sim
