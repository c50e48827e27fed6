#ifndef TENCENTREC_TOPO_WINDOW_PLAN_H_
#define TENCENTREC_TOPO_WINDOW_PLAN_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "tdstore/codec.h"
#include "topo/app.h"

namespace tencentrec::topo {

/// The one Eq. 10 window read: a flat, range-addressed key plan. Callers
/// append the session keys of each windowed counter they need (and any
/// point keys read alongside them), fetch the whole plan with ONE grouped
/// read, then reduce each counter's range to its window sum. Summation runs
/// in session order (first..last), the order a point read per session adds
/// them in, so every reader of a window computes the same sum bit for bit.
struct WindowPlan {
  struct Range {
    size_t begin = 0;
    size_t end = 0;  // half-open
  };

  WindowPlan(const AppContext* app, EventTime now)
      : first(app->WindowStart(now)), last(app->SessionOf(now)) {}

  /// Appends the window's session keys of one counter.
  Range Add(const std::function<std::string(int64_t session)>& key_of) {
    Range r;
    r.begin = keys.size();
    for (int64_t s = first; s <= last; ++s) keys.push_back(key_of(s));
    r.end = keys.size();
    return r;
  }

  /// Appends one point key; SumOf over its range is its double value.
  Range AddKey(std::string key) {
    keys.push_back(std::move(key));
    return Range{keys.size() - 1, keys.size()};
  }

  /// Sum over a fetched range in key order; the first hard error wins. A
  /// NotFound session is skipped, which leaves the sum as adding +0.0 would
  /// (the sum starts at +0.0, so it is never -0.0).
  static Result<double> SumOf(const std::vector<Result<std::string>>& vals,
                              const Range& r) {
    double sum = 0.0;
    for (size_t i = r.begin; i < r.end; ++i) {
      const Result<std::string>& v = vals[i];
      if (!v.ok()) {
        if (v.status().IsNotFound()) continue;
        return v.status();
      }
      auto d = tdstore::DecodeDouble(*v);
      if (!d.ok()) return d.status();
      sum += *d;
    }
    return sum;
  }

  const int64_t first;
  const int64_t last;
  std::vector<std::string> keys;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_WINDOW_PLAN_H_
