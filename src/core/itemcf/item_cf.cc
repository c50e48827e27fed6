#include "core/itemcf/item_cf.h"

#include <algorithm>
#include <cmath>

#include "core/itemcf/predict.h"

namespace tencentrec::core {

PracticalItemCf::PracticalItemCf(Options options)
    : options_(std::move(options)),
      counts_(options_.session_length, options_.window_sessions) {
  if (options_.hoeffding_delta <= 0.0 || options_.hoeffding_delta >= 1.0) {
    options_.hoeffding_delta = 0.05;
  }
  hoeffding_ln_inv_delta_ = std::log(1.0 / options_.hoeffding_delta);
}

UserHistory& PracticalItemCf::HistoryFor(UserId user) {
  uint32_t& idx = history_index_[PackUser(user)];
  if (idx == 0) {
    // Slot ids are 1-based so the flat table's zero-initialized value
    // means "absent"; the deque gives rows stable addresses across
    // inserts, so returned references stay valid.
    history_store_.emplace_back();
    idx = static_cast<uint32_t>(history_store_.size());
  }
  return history_store_[idx - 1];
}

const UserHistory* PracticalItemCf::FindHistory(UserId user) const {
  const uint32_t* idx = history_index_.Find(PackUser(user));
  return idx == nullptr ? nullptr : &history_store_[*idx - 1];
}

TopK<ItemId>& PracticalItemCf::ListFor(ItemId item) {
  uint32_t& idx = similar_index_[PackItem(item)];
  if (idx == 0) {
    similar_store_.emplace_back(static_cast<size_t>(options_.top_k));
    idx = static_cast<uint32_t>(similar_store_.size());
  }
  return similar_store_[idx - 1];
}

TopK<ItemId>* PracticalItemCf::FindList(ItemId item) {
  const uint32_t* idx = similar_index_.Find(PackItem(item));
  return idx == nullptr ? nullptr : &similar_store_[*idx - 1];
}

const TopK<ItemId>* PracticalItemCf::FindList(ItemId item) const {
  const uint32_t* idx = similar_index_.Find(PackItem(item));
  return idx == nullptr ? nullptr : &similar_store_[*idx - 1];
}

void PracticalItemCf::ProcessAction(const UserAction& action) {
  ++stats_.actions;
  UserHistory& history = HistoryFor(action.user);
  if (options_.history_ttl > 0) {
    history.EvictOlderThan(action.timestamp - options_.history_ttl);
  }
  // Callback form: rating delta lands in counts before any pair delta, and
  // pair updates run as they are emitted — no per-action pair vector.
  history.Apply(
      action, options_.weights, options_.linked_time,
      [this, &action](ItemId item, double rating_delta, double /*new_rating*/) {
        if (rating_delta > 0.0) {
          counts_.AddItem(item, rating_delta, action.timestamp);
        } else {
          counts_.AdvanceTo(action.timestamp);
        }
      },
      [this, &action](ItemId other, double co_delta) {
        UpdatePair(action.item, other, co_delta, action.timestamp);
      });
}

double PracticalItemCf::ThresholdOf(ItemId item) const {
  const TopK<ItemId>* list = FindList(item);
  return list == nullptr ? 0.0 : list->Threshold();
}

void PracticalItemCf::UpdatePair(ItemId i, ItemId j, double co_delta,
                                 EventTime ts) {
  const uint64_t key = PackPair(i, j);
  // Start the random-access misses this update will take further down —
  // the similar-list index probes and (under pruning) the observations
  // upsert, the largest table — so they overlap the pair-count work.
  similar_index_.Prefetch(PackItem(i));
  similar_index_.Prefetch(PackItem(j));
  if (options_.enable_pruning) observations_.Prefetch(key);
  if (options_.enable_pruning && pruned_.Contains(key)) {
    // Algorithm 1 line 4: pruned pairs skip the whole update — this is the
    // computation the pruning exists to save.
    ++stats_.pair_updates_pruned;
    return;
  }

  counts_.AddPair(i, j, co_delta, ts);
  ++stats_.pair_updates;

  const double pc = counts_.PairCount(i, j);
  const double sim = EffectiveFromCounts(i, j, pc);

  // Maintain both items' similar-items lists.
  ListFor(i).Update(j, sim);
  ListFor(j).Update(i, sim);

  if (!options_.enable_pruning) return;

  const uint32_t n = ++observations_[key];
  // Pruning is bidirectional: use the min threshold of the two lists
  // (Algorithm 1 line 12). Either list not yet full -> threshold 0 ->
  // nothing can be pruned (everything is still admissible).
  const double t = std::min(ThresholdOf(i), ThresholdOf(j));
  if (t <= 0.0) return;
  // Eq. 9 with R = 1 (similarity scores live in [0, 1]).
  const double epsilon =
      std::sqrt(hoeffding_ln_inv_delta_ / (2.0 * static_cast<double>(n)));
  if (epsilon < t - sim) {
    pruned_.Insert(key);
    ++stats_.pairs_pruned;
    // The pair can no longer enter either list; drop any stale entry. If
    // the erase shrinks a full list below K, TopK::Threshold() falls back
    // to 0 and pruning against that list pauses until the list refills —
    // the conservative reopen (an under-full list admits any positive
    // score, so keeping the old threshold would over-prune). In this
    // single-threaded pipeline the entry is usually absent already (its
    // own update just refreshed the score, making it the threshold), but
    // the sharded executor's racy similarity reads make the erase real.
    if (TopK<ItemId>* li = FindList(i)) li->Erase(j);
    if (TopK<ItemId>* lj = FindList(j)) lj->Erase(i);
  }
}

double PracticalItemCf::EffectiveSimilarity(ItemId a, ItemId b) const {
  return EffectiveFromCounts(a, b, counts_.PairCount(a, b));
}

double PracticalItemCf::EffectiveFromCounts(ItemId a, ItemId b,
                                            double pair_count) const {
  if (pair_count <= 0.0) return 0.0;
  double sim =
      ItemSimilarity(pair_count, counts_.ItemCount(a), counts_.ItemCount(b));
  if (sim > 0.0 && options_.support_shrinkage > 0.0) {
    sim *= pair_count / (pair_count + options_.support_shrinkage);
  }
  return sim;
}

const TopK<ItemId>* PracticalItemCf::SimilarItems(ItemId item) const {
  return FindList(item);
}

std::vector<ItemId> PracticalItemCf::RecentItemsOf(UserId user) const {
  const UserHistory* history = FindHistory(user);
  if (history == nullptr) return {};
  const size_t k = options_.recent_k > 0
                       ? static_cast<size_t>(options_.recent_k)
                       : history->size();
  return history->RecentItems(k);
}

double PracticalItemCf::UserRating(UserId user, ItemId item) const {
  const UserHistory* history = FindHistory(user);
  return history == nullptr ? 0.0 : history->RatingOf(item);
}

Recommendations PracticalItemCf::RecommendForUser(UserId user,
                                                  size_t n) const {
  const UserHistory* history = FindHistory(user);
  if (history == nullptr) return {};
  return PredictFromRecent(
      *history, RecentItemsOf(user),
      [this](ItemId q) { return SimilarItems(q); },
      [this](ItemId p, ItemId q) { return EffectiveSimilarity(p, q); }, n);
}

bool PracticalItemCf::IsPruned(ItemId a, ItemId b) const {
  return pruned_.Contains(PackPair(a, b));
}

}  // namespace tencentrec::core
