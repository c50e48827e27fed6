#ifndef TENCENTREC_TOPO_COMBINER_H_
#define TENCENTREC_TOPO_COMBINER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tencentrec::topo {

/// The combiner of §5.3 (hot item problem): a map buffering incoming tuples
/// and partially merging those with the same key, so that one expensive
/// TDStore write replaces many. The bolt drains it from Tick() (the
/// "predefined intervals") and before end-of-stream.
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

  /// Merges `delta` into the buffered value for `key` (combine op = add).
  void Add(const std::string& key, double delta) {
    buffer_[key] += delta;
    ++stats_.added;
  }

  /// Moves the whole buffer out at once: the caller ships the entries
  /// through a BatchWriter and re-Adds any whose write fails, so a failed
  /// key is retried at the next flush (at-least-once). Every drained entry
  /// counts as flushed.
  void Drain(std::vector<std::pair<std::string, double>>* out) {
    out->clear();
    out->reserve(buffer_.size());
    for (auto& [key, delta] : buffer_) out->emplace_back(key, delta);
    stats_.flushed += static_cast<int64_t>(buffer_.size());
    buffer_.clear();
  }

  size_t pending() const { return buffer_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  std::unordered_map<std::string, double> buffer_;
  Stats stats_;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_COMBINER_H_
