#ifndef TENCENTREC_CORE_ACTION_H_
#define TENCENTREC_CORE_ACTION_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace tencentrec::core {

using UserId = int64_t;
using ItemId = int64_t;

/// Implicit-feedback behaviour types observed by the applications (§4.1.2:
/// "click, browse, purchase, share, comment, etc."). kImpression is an ad
/// being shown (used by the CTR algorithm as the denominator).
enum class ActionType : uint8_t {
  kImpression = 0,
  kBrowse,
  kClick,
  kRead,
  kShare,
  kComment,
  kPurchase,
  kNumActionTypes,
};

constexpr size_t kNumActionTypes =
    static_cast<size_t>(ActionType::kNumActionTypes);

const char* ActionTypeName(ActionType type);

/// Demographic attributes used for clustering users into groups (§4.2:
/// "gender, age and education"; we use gender/age-band/region as in the
/// CTR example query of §1). kUnknown* lets the DB algorithm fall back to
/// the global group for users with missing attributes (§6.4).
struct Demographics {
  enum Gender : uint8_t { kUnknownGender = 0, kMale, kFemale };

  Gender gender = kUnknownGender;
  /// 0 = unknown, else decade band (1 = <20, 2 = 20s, 3 = 30s, ...).
  uint8_t age_band = 0;
  /// 0 = unknown, else region code.
  uint16_t region = 0;

  bool operator==(const Demographics&) const = default;
};

/// Identifier of a demographic group; 0 is the global group (all users).
using GroupId = uint32_t;

/// Maps demographics to a group id: gender x age_band (region intentionally
/// excluded from grouping to keep groups dense; the CTR algorithm uses
/// region as a separate dimension). Unknown attributes map to the global
/// group.
inline GroupId DemographicGroup(const Demographics& d) {
  if (d.gender == Demographics::kUnknownGender || d.age_band == 0) return 0;
  return static_cast<GroupId>(d.gender) * 100u + d.age_band;
}

/// One raw user-action tuple as emitted by an application into TDAccess:
/// <user, item, action> plus event time and the acting user's demographics
/// (joined in by the application's tracking tier).
struct UserAction {
  UserId user = 0;
  ItemId item = 0;
  ActionType action = ActionType::kClick;
  EventTime timestamp = 0;
  Demographics demographics;
  /// Wall-clock (MonoMicros) instant the action entered the system — stamped
  /// at publish/spout time, carried through the topology untouched, and
  /// subtracted at each store write to measure true event-to-store latency
  /// (the paper's ~2s freshness claim). 0 = unstamped. Instrumentation only:
  /// never an input to any algorithm, so determinism of the event-time axis
  /// is unaffected.
  uint64_t ingest_micros = 0;
  /// Sampled-tracing id (common/trace.h): nonzero for the 1-in-N actions
  /// picked at the publish/spout edge; every component hop the action (or a
  /// tuple derived from it) crosses records a span under this id. 0 = not
  /// sampled. Instrumentation only, like ingest_micros.
  uint64_t trace_id = 0;
};

/// The id contract of every ingest path: user and item ids in [1, 2^32)
/// and a non-negative event time. The CF state tables pack two item ids
/// into one uint64 (core/itemcf/pair_key.h) and the CTR level keys keep an
/// item's low 32 bits, so an id outside the range would abort the kernel or
/// alias another item's counters; PretreatmentBolt and
/// TencentRec::ProcessBatch drop such actions instead.
inline bool HasValidIds(const UserAction& a) {
  constexpr int64_t kIdLimit = int64_t{1} << 32;
  return a.user >= 1 && a.user < kIdLimit && a.item >= 1 &&
         a.item < kIdLimit && a.timestamp >= 0;
}

/// Per-action-type rating weights (§4.1.2: "a browse behavior may
/// correspond to a one star rating while a purchase behavior corresponds to
/// a three star rating"). A user's rating for an item is the MAX weight
/// across their actions on it, which bounds the noise of messy implicit
/// feedback.
class ActionWeights {
 public:
  /// Paper-inspired defaults; impressions carry no preference weight.
  ActionWeights() {
    weights_[static_cast<size_t>(ActionType::kImpression)] = 0.0;
    weights_[static_cast<size_t>(ActionType::kBrowse)] = 1.0;
    weights_[static_cast<size_t>(ActionType::kClick)] = 1.5;
    weights_[static_cast<size_t>(ActionType::kRead)] = 2.0;
    weights_[static_cast<size_t>(ActionType::kShare)] = 2.5;
    weights_[static_cast<size_t>(ActionType::kComment)] = 2.5;
    weights_[static_cast<size_t>(ActionType::kPurchase)] = 3.0;
  }

  double Weight(ActionType type) const {
    return weights_[static_cast<size_t>(type)];
  }

  void SetWeight(ActionType type, double weight) {
    weights_[static_cast<size_t>(type)] = weight;
  }

  /// Maximum configured weight; the rating range R in the Hoeffding bound
  /// discussion is expressed in similarity space (R = 1), but rating-space
  /// consumers (e.g. normalizers) may need this.
  double MaxWeight() const {
    double m = 0.0;
    for (double w : weights_) m = m > w ? m : w;
    return m;
  }

 private:
  std::array<double, kNumActionTypes> weights_{};
};

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ACTION_H_
