#include "core/itemcf/item_cf.h"

namespace tencentrec::core {

namespace {

/// The pair layer's item side in the one-shard case: itemCounts from the
/// pair layer's own WindowedCounts, lists from the one table.
struct OneShardItems {
  const WindowedCounts& counts;
  SimilarLists& lists;

  double ItemCount(ItemId item) const { return counts.ItemCount(item); }
  void Update(ItemId item, ItemId other, double sim) {
    lists.Update(item, other, sim);
  }
  double Threshold(ItemId item) const { return lists.Threshold(item); }
  void Erase(ItemId item, ItemId other) { lists.Erase(item, other); }
};

}  // namespace

PracticalItemCf::PracticalItemCf(Options options)
    : options_(std::move(options)),
      users_(options_),
      pairs_(options_),
      lists_(options_.top_k) {}

void PracticalItemCf::ProcessAction(const UserAction& action) {
  WindowedCounts& counts = pairs_.counts();
  OneShardItems items{counts, lists_};
  // The rating delta lands in counts before any pair delta, and pair updates
  // run as they are emitted — no per-action pair vector.
  users_.Apply(
      action,
      [&counts, &action](ItemId item, double rating_delta,
                         double /*new_rating*/) {
        if (rating_delta > 0.0) {
          counts.AddItem(item, rating_delta, action.timestamp);
        } else {
          counts.AdvanceTo(action.timestamp);
        }
      },
      [this, &items, &action](ItemId other, double co_delta) {
        // Start the random-access misses the update takes further down —
        // the similar-list index probes and (under pruning) the
        // observations upsert, the largest table — before the pruned check,
        // so they overlap the pair-count work.
        lists_.Prefetch(action.item);
        lists_.Prefetch(other);
        pairs_.Prefetch(action.item, other);
        pairs_.Update(action.item, other, co_delta, action.timestamp, items);
      });
}

double PracticalItemCf::EffectiveSimilarity(ItemId a, ItemId b) const {
  const WindowedCounts& counts = pairs_.counts();
  return pairs_.EffectiveSimilarity(
      a, b, [&counts](ItemId item) { return counts.ItemCount(item); });
}

Recommendations PracticalItemCf::RecommendForUser(UserId user,
                                                  size_t n) const {
  return users_.RecommendForUser(
      user, n, [this](ItemId q) { return SimilarItems(q); },
      [this](ItemId p, ItemId q) { return EffectiveSimilarity(p, q); });
}

}  // namespace tencentrec::core
