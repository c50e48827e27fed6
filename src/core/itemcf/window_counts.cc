#include "core/itemcf/window_counts.h"

#include <algorithm>
#include <cmath>

namespace tencentrec::core {

WindowedCounts::Session* WindowedCounts::SessionFor(EventTime ts) {
  // Cumulative mode: one ever-growing pseudo-session.
  if (window_sessions_ <= 0) {
    if (sessions_.empty()) {
      sessions_.push_back(Session{});
      latest_session_ = 0;
    }
    return &sessions_.back();
  }

  const int64_t id = SessionOf(ts);
  if (defer_eviction_) {
    // Deferred mode (sharded executor): only track the high-water mark;
    // eviction waits for the explicit AdvanceTo at the drain barrier. An
    // event is "late" only if its session was already evicted by a prior
    // barrier — being behind the high-water mark just means a sibling
    // shard ran ahead.
    if (id > latest_session_) latest_session_ = id;
    if (id < evicted_floor_) {
      return sessions_.empty() ? nullptr : &sessions_.front();
    }
  } else {
    AdvanceTo(ts);
    if (!InWindow(id)) {
      // Out-of-window late data folds into the oldest live session rather
      // than resurrecting an expired one; with nothing live it is already
      // fully expired and is dropped.
      return sessions_.empty() ? nullptr : &sessions_.front();
    }
  }
  // The deque is ordered by session id, so eviction stays front-only and
  // reads need no in-window filtering. Hot path first: in-order streams
  // always land in the newest session.
  if (!sessions_.empty() && sessions_.back().id == id) {
    return &sessions_.back();
  }
  auto it = std::lower_bound(
      sessions_.begin(), sessions_.end(), id,
      [](const Session& s, int64_t want) { return s.id < want; });
  if (it != sessions_.end() && it->id == id) return &*it;
  it = sessions_.insert(it, Session{});
  it->id = id;
  return &*it;
}

void WindowedCounts::AdvanceTo(EventTime ts) {
  if (window_sessions_ <= 0) return;
  const int64_t id = SessionOf(ts);
  if (id > latest_session_) latest_session_ = id;
  // Ordered deque: every expired session sits at the front, so front-only
  // pops reclaim all of them even after out-of-order inserts.
  while (!sessions_.empty() && !InWindow(sessions_.front().id)) {
    // Keep the incrementally-maintained totals in sync: subtract the
    // dropped session's partials (exact — see the class comment).
    const Session& s = sessions_.front();
    s.items_flat.ForEach(
        [this](uint64_t key, double c) { items_total_[key] -= c; });
    s.pairs_flat.ForEach(
        [this](uint64_t key, double c) { pairs_total_[key] -= c; });
    sessions_.pop_front();
  }
  const int64_t floor = latest_session_ - window_sessions_ + 1;
  if (floor > evicted_floor_) evicted_floor_ = floor;
}

void WindowedCounts::AddItem(ItemId item, double delta, EventTime ts) {
  Session* s = SessionFor(ts);
  if (s == nullptr) return;
  const uint64_t key = PackItem(item);
  s->items_flat[key] += delta;
  items_total_[key] += delta;
}

void WindowedCounts::AddPair(ItemId a, ItemId b, double delta, EventTime ts) {
  Session* s = SessionFor(ts);
  if (s == nullptr) return;
  const uint64_t key = PackPair(a, b);
  s->pairs_flat[key] += delta;
  pairs_total_[key] += delta;
}

double WindowedCounts::ItemCount(ItemId item) const {
  // One probe of the maintained windowed total (see the class comment).
  const double* v = items_total_.Find(PackItem(item));
  return v == nullptr ? 0.0 : *v;
}

double WindowedCounts::PairCount(ItemId a, ItemId b) const {
  const double* v = pairs_total_.Find(PackPair(a, b));
  return v == nullptr ? 0.0 : *v;
}

double WindowedCounts::Similarity(ItemId a, ItemId b) const {
  return ItemSimilarity(PairCount(a, b), ItemCount(a), ItemCount(b));
}

size_t WindowedCounts::TrackedItems() const {
  FlatSet64 seen;
  for (const auto& s : sessions_) {
    s.items_flat.ForEach([&seen](uint64_t key, double) { seen.Insert(key); });
  }
  return seen.size();
}

size_t WindowedCounts::TrackedPairs() const {
  FlatSet64 seen;
  for (const auto& s : sessions_) {
    s.pairs_flat.ForEach([&seen](uint64_t key, double) { seen.Insert(key); });
  }
  return seen.size();
}

}  // namespace tencentrec::core
