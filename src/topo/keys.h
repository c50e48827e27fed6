#ifndef TENCENTREC_TOPO_KEYS_H_
#define TENCENTREC_TOPO_KEYS_H_

#include <string>

#include "core/action.h"
#include "core/content.h"

namespace tencentrec::topo {

/// TDStore key schema for one application's recommendation state. All keys
/// are namespaced by app so applications sharing a cluster cannot collide,
/// while algorithm-common statistics (itemCount etc.) are shared between
/// algorithms of the same app (§5.1: "multiple algorithms share the
/// statistical data").
///
/// Session-scoped counters (`ic`, `pc`, `gh`, `ctr`) embed the session id
/// so the sliding window of Eq. 10 is a prefix sum over live sessions.
class Keys {
 public:
  explicit Keys(std::string app) : app_(std::move(app)) {}

  const std::string& app() const { return app_; }

  /// Serialized UserHistory blob.
  std::string UserHistory(core::UserId user) const {
    return "uh:" + app_ + ":" + std::to_string(user);
  }

  /// itemCount_w (double) for one session.
  std::string ItemCount(int64_t session, core::ItemId item) const {
    return "ic:" + app_ + ":" + std::to_string(session) + ":" +
           std::to_string(item);
  }

  /// pairCount_w (double) for one session; callers pass canonical lo<=hi.
  std::string PairCount(int64_t session, core::ItemId lo,
                        core::ItemId hi) const {
    return "pc:" + app_ + ":" + std::to_string(session) + ":" +
           std::to_string(lo) + ":" + std::to_string(hi);
  }

  /// n_ij (double, exact below 2^53): observations of the pair (Algorithm 1).
  std::string PairObservations(core::ItemId lo, core::ItemId hi) const {
    return "po:" + app_ + ":" + std::to_string(lo) + ":" + std::to_string(hi);
  }

  /// Pruned-pair flag (presence = pruned; monotone, safe to cache).
  std::string Pruned(core::ItemId lo, core::ItemId hi) const {
    return "pr:" + app_ + ":" + std::to_string(lo) + ":" + std::to_string(hi);
  }

  /// Serialized similar-items top-K list of an item.
  std::string SimilarItems(core::ItemId item) const {
    return "sim:" + app_ + ":" + std::to_string(item);
  }

  /// Admission threshold (double) of an item's similar-items list.
  std::string SimilarThreshold(core::ItemId item) const {
    return "st:" + app_ + ":" + std::to_string(item);
  }

  /// Group popularity count (double) for one session (DB algorithm).
  std::string GroupHot(core::GroupId group, int64_t session,
                       core::ItemId item) const {
    return "gh:" + app_ + ":" + std::to_string(group) + ":" +
           std::to_string(session) + ":" + std::to_string(item);
  }

  /// Serialized hot-items top-K list of a group.
  std::string HotList(core::GroupId group) const {
    return "hl:" + app_ + ":" + std::to_string(group);
  }

  /// CTR counts (impressions, clicks — two doubles) per level key/session.
  std::string CtrCounts(uint64_t level_key, int64_t session) const {
    return "ctr:" + app_ + ":" + std::to_string(session) + ":" +
           std::to_string(level_key);
  }

  /// Serialized content profile of a user (CB algorithm).
  std::string ContentProfile(core::UserId user) const {
    return "cp:" + app_ + ":" + std::to_string(user);
  }

  /// Serialized tag vector of an item (CB catalog).
  std::string ItemTags(core::ItemId item) const {
    return "it:" + app_ + ":" + std::to_string(item);
  }

  /// Serialized item list for a tag (CB inverted index).
  std::string TagIndex(core::TagId tag) const {
    return "ti:" + app_ + ":" + std::to_string(tag);
  }

  /// Materialized recommendation list of a user (storage layer).
  std::string Results(core::UserId user) const {
    return "rec:" + app_ + ":" + std::to_string(user);
  }

 private:
  std::string app_;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_KEYS_H_
