#ifndef TENCENTREC_TOPO_COMBINER_H_
#define TENCENTREC_TOPO_COMBINER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"

namespace tencentrec::topo {

/// The combiner of §5.3 (hot item problem): a map buffering incoming tuples
/// and partially merging those with the same key, so that one expensive
/// TDStore write replaces many. The bolt drains it from Tick() (the
/// "predefined intervals") and before end-of-stream, shipping the merged
/// deltas as one grouped increment; it is the only buffer a write-only
/// counter passes through.
///
/// Under a temporal burst the same hot key is hit over and over inside one
/// interval, so the combine ratio — and the saving — *increases* exactly
/// when the system is under the most load.
class Combiner {
 public:
  struct Stats {
    int64_t added = 0;    ///< tuples absorbed
    int64_t flushed = 0;  ///< entries drained toward the store
  };

  /// Stamps of the tuples buffered since the last successful flush, which
  /// that flush records: the buffered deltas reach the store only then.
  struct Stamps {
    uint64_t oldest_ingest = 0;  ///< event-to-store latency is measured here
    uint64_t newest_ingest = 0;  ///< the watermark the flush reaches
    uint64_t first_trace = 0;    ///< sampled trace the flush is attributed to
  };

  /// Merges `delta` into the buffered value for `key` (combine op = add);
  /// a first-seen key is moved into the buffer.
  void Add(std::string key, double delta) {
    *buffer_.TryEmplace(std::move(key)).first += delta;
    ++stats_.added;
  }

  /// Notes one buffered tuple's ingest stamp and trace id (0 = unstamped,
  /// unsampled).
  void Stamp(uint64_t ingest, uint64_t trace) {
    if (ingest != 0 &&
        (stamps_.oldest_ingest == 0 || ingest < stamps_.oldest_ingest)) {
      stamps_.oldest_ingest = ingest;
    }
    stamps_.newest_ingest = std::max(stamps_.newest_ingest, ingest);
    if (stamps_.first_trace == 0) stamps_.first_trace = trace;
  }

  /// Moves the whole buffer out at once: the caller ships the entries and
  /// re-Adds any whose write fails, so a failed key is retried at the next
  /// flush (at-least-once). Every drained entry counts as flushed.
  void Drain(std::vector<std::pair<std::string, double>>* out) {
    out->clear();
    out->reserve(buffer_.size());
    stats_.flushed += static_cast<int64_t>(buffer_.size());
    buffer_.Drain([out](std::string&& key, double&& delta) {
      out->emplace_back(std::move(key), delta);
    });
  }

  const Stamps& stamps() const { return stamps_; }
  /// Called once a flush has landed every buffered delta.
  void ClearStamps() { stamps_ = Stamps(); }

  size_t pending() const { return buffer_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  FlatStringMap<double> buffer_;
  Stamps stamps_;
  Stats stats_;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_COMBINER_H_
