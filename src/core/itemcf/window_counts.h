#ifndef TENCENTREC_CORE_ITEMCF_WINDOW_COUNTS_H_
#define TENCENTREC_CORE_ITEMCF_WINDOW_COUNTS_H_

#include <cmath>
#include <cstdint>
#include <deque>

#include "common/clock.h"
#include "common/flat_map.h"
#include "core/itemcf/pair_key.h"

namespace tencentrec::core {

/// Eq. 5: the similarity of two items from their (windowed) counts,
/// pairCount / sqrt(itemCount_a · itemCount_b), or 0 when any count is not
/// positive. Every similarity site — the in-memory kernels, the topology's
/// CfPairBolt and the store queries — computes through this one function,
/// so their results agree to the bit.
inline double ItemSimilarity(double pair_count, double count_a,
                             double count_b) {
  if (count_a <= 0.0 || count_b <= 0.0 || pair_count <= 0.0) return 0.0;
  return pair_count / std::sqrt(count_a * count_b);
}

/// Sliding-window itemCount/pairCount storage (Eq. 10). Event time is cut
/// into sessions of `session_length`; each session keeps its own partial
/// counts (itemCount_w, pairCount_w), all "naturally incrementally
/// updated", and a query sums the most recent `window_sessions` sessions.
/// Expired sessions are dropped as time advances — the forgetting mechanism
/// that keeps the model tracking recent interests.
///
/// `window_sessions == 0` disables forgetting (cumulative counts), which is
/// the plain incremental CF of §4.1.3.
///
/// Per-session tables are open-addressing flat tables over packed uint64
/// keys (DESIGN.md §15). Beside them the class maintains windowed *totals*
/// tables updated incrementally: adds land in both the owning session table
/// and the total, and eviction subtracts the dropped session's entries, so
/// ItemCount/PairCount are one probe instead of one per live session.
/// Action weights are dyadic rationals (multiples of 0.5), so every sum
/// and the eviction subtraction are exact in double precision — the
/// maintained total equals the naive sum over the live sessions for any
/// accumulation order (asserted by tests/flat_kernel_test.cc on
/// windowed-expiry traces). Fully-evicted keys linger as exact-0.0 entries
/// (the tables have no tombstones); queries read them as 0.0, and
/// TrackedItems/TrackedPairs scan live sessions so zombies never inflate
/// the tracked counts.
class WindowedCounts {
 public:
  WindowedCounts(EventTime session_length, int window_sessions)
      : session_length_(session_length < 1 ? 1 : session_length),
        window_sessions_(window_sessions) {}

  /// Deferred-eviction mode, for the sharded executor: events always land
  /// in their true session — even when the high-water mark has already
  /// advanced past their window — and expired sessions are dropped only by
  /// explicit AdvanceTo() calls (the drain barrier). With eager eviction a
  /// shard that runs slightly behind its siblings would see its in-order
  /// events misclassified as late (folded forward) whenever the stream
  /// jumps across sessions; deferring eviction to the barrier makes the
  /// drained state identical to a serial run of the same stream. The cost
  /// is that between drains the deque can briefly hold more than
  /// window_sessions_ sessions (bounded by the event-time span since the
  /// last drain).
  void SetDeferredEviction(bool defer) { defer_eviction_ = defer; }

  /// Adds ∆r to itemCount(item) in the session containing `ts`.
  void AddItem(ItemId item, double delta, EventTime ts);

  /// Adds ∆co-rating to pairCount(a, b) in the session containing `ts`.
  void AddPair(ItemId a, ItemId b, double delta, EventTime ts);

  /// Σ_w itemCount_w(item) over the window ending at the latest session.
  double ItemCount(ItemId item) const;

  /// Σ_w pairCount_w(a, b) over the window ending at the latest session.
  double PairCount(ItemId a, ItemId b) const;

  /// Hints the cache lines AddPair/PairCount will touch for (a, b): the
  /// windowed total's slot and the newest session's slot (where in-order
  /// streams land). Batch loops call this one delta ahead so the
  /// random-access misses overlap the current delta's work.
  void PrefetchPair(ItemId a, ItemId b) const {
    const uint64_t key = PackPair(a, b);
    pairs_total_.Prefetch(key);
    if (!sessions_.empty()) sessions_.back().pairs_flat.Prefetch(key);
  }

  /// sim(a, b) = pairCount / (√itemCount(a) · √itemCount(b))  (Eq. 5/10).
  /// Zero when either itemCount is empty.
  double Similarity(ItemId a, ItemId b) const;

  /// Moves the window forward to the session containing `ts`, dropping
  /// sessions older than the window. Adds do this implicitly; call it
  /// directly to expire counts during quiet periods.
  void AdvanceTo(EventTime ts);

  int64_t CurrentSession() const { return latest_session_; }
  size_t NumSessions() const { return sessions_.size(); }

  /// Distinct items/pairs currently tracked (across live sessions).
  size_t TrackedItems() const;
  size_t TrackedPairs() const;

 private:
  struct Session {
    int64_t id = 0;
    FlatMap64<double> items_flat;
    FlatMap64<double> pairs_flat;
  };

  int64_t SessionOf(EventTime ts) const { return ts / session_length_; }
  /// The live session that should absorb counts timestamped `ts`, creating
  /// it in id-sorted position when needed. Late but in-window data lands in
  /// its own (correct) session; out-of-window late data folds into the
  /// oldest live session, or returns nullptr (drop) when nothing is live.
  Session* SessionFor(EventTime ts);
  bool InWindow(int64_t session_id) const {
    return window_sessions_ <= 0 ||
           session_id > latest_session_ - window_sessions_;
  }

  const EventTime session_length_;
  const int window_sessions_;
  bool defer_eviction_ = false;
  int64_t latest_session_ = -1;
  /// Σ over live sessions, maintained incrementally (see the class
  /// comment). May hold exact-0.0 zombies for evicted keys.
  FlatMap64<double> items_total_;
  FlatMap64<double> pairs_total_;
  /// Sessions below this id have been evicted (deferred mode only): a
  /// straggler event for one of them is genuinely late, not just behind a
  /// sibling shard, and takes the fold-or-drop path.
  int64_t evicted_floor_ = INT64_MIN;
  /// Live sessions, ordered by ascending session id; at most
  /// window_sessions_ of them (or one cumulative pseudo-session when
  /// windowing is off). The ordering invariant makes eviction front-only
  /// and lets reads sum the whole deque without in-window checks.
  std::deque<Session> sessions_;
};

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_WINDOW_COUNTS_H_
