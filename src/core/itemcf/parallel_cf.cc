#include "core/itemcf/parallel_cf.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "common/trace.h"
#include "core/itemcf/predict.h"

namespace tencentrec::core {

// Stage timing uses the shared monotonic clock from common/metrics.h.
namespace {

uint64_t NowMicros() { return MonoMicros(); }

// `hash & mask` when the bucket count is a power of two (mask != 0, the
// default configs), `hash % n` otherwise. Same bucket for the same hash
// either way — only the instruction differs.
inline size_t Route(uint64_t hash, size_t mask, size_t n) {
  return mask != 0 ? (static_cast<size_t>(hash) & mask)
                   : (static_cast<size_t>(hash) % n);
}

inline size_t MaskFor(size_t n) { return (n & (n - 1)) == 0 ? n - 1 : 0; }

}  // namespace

std::string ParallelItemCf::StageNameFor(const char* stage) const {
  const std::string& scope = options_.metrics_scope;
  return (scope.empty() ? std::string("parallel_cf") : scope) + "." + stage;
}

ParallelItemCf::ParallelItemCf(Options options) : options_(std::move(options)) {
  options_.user_shards = std::max(1, options_.user_shards);
  options_.pair_shards = std::max(1, options_.pair_shards);
  options_.count_stripes = std::max(1, options_.count_stripes);
  options_.list_stripes = std::max(1, options_.list_stripes);
  options_.batch_size = std::max<size_t>(1, options_.batch_size);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  if (options_.cf.hoeffding_delta <= 0.0 ||
      options_.cf.hoeffding_delta >= 1.0) {
    options_.cf.hoeffding_delta = 0.05;
  }
  hoeffding_ln_inv_delta_ = std::log(1.0 / options_.cf.hoeffding_delta);
  user_shard_mask_ = MaskFor(static_cast<size_t>(options_.user_shards));
  pair_shard_mask_ = MaskFor(static_cast<size_t>(options_.pair_shards));
  count_stripe_mask_ = MaskFor(static_cast<size_t>(options_.count_stripes));
  list_stripe_mask_ = MaskFor(static_cast<size_t>(options_.list_stripes));

  if (MetricsEnabled() && !options_.metrics_scope.empty()) {
    auto& reg = MetricRegistry::Default();
    const std::string& scope = options_.metrics_scope;
    user_queue_wait_ = reg.GetHistogram(scope + ".user-history.queue_wait_us");
    user_service_ = reg.GetHistogram(scope + ".user-history.service_us");
    pair_queue_wait_ = reg.GetHistogram(scope + ".count+sim.queue_wait_us");
    pair_service_ = reg.GetHistogram(scope + ".count+sim.service_us");
  }

  // All windowed state defers eviction to the drain barrier: shards run at
  // slightly different points in the stream, and eager eviction would
  // misread a lagging shard's in-order events as late data whenever the
  // stream jumps across sessions (see WindowedCounts::SetDeferredEviction).
  for (int s = 0; s < options_.count_stripes; ++s) {
    auto stripe = std::make_unique<CountStripe>(options_.cf.session_length,
                                                options_.cf.window_sessions);
    stripe->counts.SetDeferredEviction(true);
    item_stripes_.push_back(std::move(stripe));
  }
  for (int s = 0; s < options_.list_stripes; ++s) {
    list_stripes_.push_back(std::make_unique<ListStripe>());
  }

  pending_.resize(static_cast<size_t>(options_.user_shards));
  for (int s = 0; s < options_.pair_shards; ++s) {
    auto shard = std::make_unique<PairShard>(options_.queue_capacity,
                                             options_.cf.session_length,
                                             options_.cf.window_sessions);
    shard->counts.SetDeferredEviction(true);
    pair_shards_.push_back(std::move(shard));
  }
  for (int s = 0; s < options_.user_shards; ++s) {
    user_shards_.push_back(
        std::make_unique<UserShard>(options_.queue_capacity));
  }
  // Freshness slots are registered before the workers start so the stages
  // exist (with no-data watermarks) from the first /vars publication. The
  // obs plane is independent of the metrics kill switch.
  const std::string freshness_scope =
      options_.metrics_scope.empty() ? "parallel_cf" : options_.metrics_scope;
  for (auto& shard : user_shards_) {
    shard->freshness = obs::FreshnessTracker::Default().RegisterSlot(
        freshness_scope + ".user-history");
  }
  for (auto& shard : pair_shards_) {
    shard->freshness = obs::FreshnessTracker::Default().RegisterSlot(
        freshness_scope + ".count+sim");
  }
  // Start the downstream layer first so upstream emissions always find
  // live consumers (same discipline as tstorm::LocalCluster).
  for (auto& shard : pair_shards_) {
    shard->thread =
        std::thread([this, s = shard.get()] { PairWorker(s); });
  }
  for (auto& shard : user_shards_) {
    shard->thread =
        std::thread([this, s = shard.get()] { UserWorker(s); });
  }
}

ParallelItemCf::~ParallelItemCf() { Shutdown(); }

size_t ParallelItemCf::UserShardOf(UserId user) const {
  return Route(HashInt(static_cast<uint64_t>(user)), user_shard_mask_,
               user_shards_.size());
}

size_t ParallelItemCf::PairShardOf(const PairKey& key) const {
  return Route(PairKeyHash()(key), pair_shard_mask_, pair_shards_.size());
}

ParallelItemCf::CountStripe& ParallelItemCf::ItemStripe(ItemId item) const {
  return *item_stripes_[Route(HashInt(static_cast<uint64_t>(item)),
                              count_stripe_mask_, item_stripes_.size())];
}

ParallelItemCf::ListStripe& ParallelItemCf::ListStripeOf(ItemId item) const {
  return *list_stripes_[Route(HashInt(static_cast<uint64_t>(item)),
                              list_stripe_mask_, list_stripes_.size())];
}

// --- ingestion (driver thread) ----------------------------------------------

void ParallelItemCf::ProcessAction(const UserAction& action) {
  TR_CHECK(!shutdown_);
  if (action.timestamp > max_ts_) max_ts_ = action.timestamp;
  if (action.ingest_micros > max_ingest_) max_ingest_ = action.ingest_micros;
  const size_t shard = UserShardOf(action.user);
  pending_[shard].push_back(action);
  if (pending_[shard].size() >= options_.batch_size) PushUserBatch(shard);
}

void ParallelItemCf::ProcessActions(const std::vector<UserAction>& actions) {
  for (const auto& action : actions) ProcessAction(action);
}

void ParallelItemCf::PushUserBatch(size_t shard_index) {
  if (pending_[shard_index].empty()) return;
  UserMsg msg;
  msg.actions = std::move(pending_[shard_index]);
  pending_[shard_index].clear();
  if (user_queue_wait_ != nullptr) msg.enqueue_micros = NowMicros();
  user_shards_[shard_index]->queue.Push(std::move(msg));
}

// --- barrier / lifecycle ------------------------------------------------------

void ParallelItemCf::BeginBarrier(int acks) {
  std::lock_guard<std::mutex> lock(barrier_mu_);
  barrier_pending_ = acks;
}

void ParallelItemCf::AwaitBarrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  barrier_cv_.wait(lock, [&] { return barrier_pending_ == 0; });
}

void ParallelItemCf::AckBarrier() {
  std::lock_guard<std::mutex> lock(barrier_mu_);
  if (--barrier_pending_ == 0) barrier_cv_.notify_all();
}

void ParallelItemCf::Drain() {
  if (shutdown_) return;
  for (size_t s = 0; s < pending_.size(); ++s) PushUserBatch(s);

  // Phase 1: every user worker flushes its pair-delta buffers downstream.
  // FIFO queues guarantee those batches precede the phase-2 flush tokens.
  BeginBarrier(static_cast<int>(user_shards_.size()));
  for (auto& shard : user_shards_) {
    UserMsg msg;
    msg.flush = true;
    msg.ingest_watermark = max_ingest_;
    shard->queue.Push(std::move(msg));
  }
  AwaitBarrier();

  // Phase 2: every pair worker applies what layer 1 emitted, then advances
  // its sliding window to the stream's high-water mark so expiry does not
  // depend on which shard saw the newest event.
  BeginBarrier(static_cast<int>(pair_shards_.size()));
  for (auto& shard : pair_shards_) {
    PairMsg msg;
    msg.flush = true;
    msg.watermark = max_ts_;
    msg.ingest_watermark = max_ingest_;
    shard->queue.Push(std::move(msg));
  }
  AwaitBarrier();

  // Shared itemCounts advance the same way.
  for (auto& stripe : item_stripes_) {
    std::lock_guard<ProfiledMutex> lock(stripe->mu);
    stripe->counts.AdvanceTo(max_ts_);
  }
}

void ParallelItemCf::Shutdown() {
  if (shutdown_) return;
  Drain();
  shutdown_ = true;
  for (auto& shard : user_shards_) shard->queue.Close();
  for (auto& shard : user_shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : pair_shards_) shard->queue.Close();
  for (auto& shard : pair_shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

// --- slot-store accessors ----------------------------------------------------

UserHistory& ParallelItemCf::HistoryFor(UserShard* shard, UserId user) {
  uint32_t& idx = shard->history_index[PackUser(user)];
  if (idx == 0) {
    // 1-based slot ids so the flat table's zero value means "absent"; the
    // deque keeps rows at stable addresses across inserts.
    shard->history_store.emplace_back();
    idx = static_cast<uint32_t>(shard->history_store.size());
  }
  return shard->history_store[idx - 1];
}

const UserHistory* ParallelItemCf::FindHistory(const UserShard& shard,
                                               UserId user) const {
  const uint32_t* idx = shard.history_index.Find(PackUser(user));
  return idx == nullptr ? nullptr : &shard.history_store[*idx - 1];
}

TopK<ItemId>& ParallelItemCf::GetListLocked(ListStripe& stripe, ItemId item) {
  uint32_t& idx = stripe.index[PackItem(item)];
  if (idx == 0) {
    stripe.store.emplace_back(static_cast<size_t>(options_.cf.top_k));
    idx = static_cast<uint32_t>(stripe.store.size());
  }
  return stripe.store[idx - 1];
}

TopK<ItemId>* ParallelItemCf::FindListLocked(const ListStripe& stripe,
                                             ItemId item) const {
  const uint32_t* idx = stripe.index.Find(PackItem(item));
  return idx == nullptr
             ? nullptr
             : const_cast<TopK<ItemId>*>(&stripe.store[*idx - 1]);
}

// --- layer 1: user-history workers -------------------------------------------

void ParallelItemCf::UserWorker(UserShard* shard) {
  RegisterStageThread(StageNameFor("user-history"));
  // Per-destination-shard output buffers, flushed when full and on drain.
  std::vector<std::vector<PairDelta>> out(pair_shards_.size());
  auto flush_all = [&] {
    for (size_t p = 0; p < out.size(); ++p) {
      if (out[p].empty()) continue;
      PairMsg msg;
      msg.deltas = std::move(out[p]);
      out[p].clear();
      if (pair_queue_wait_ != nullptr) msg.enqueue_micros = NowMicros();
      pair_shards_[p]->queue.Push(std::move(msg));
    }
  };

  while (auto msg = shard->queue.Pop()) {
    shard->heartbeat.fetch_add(1, std::memory_order_relaxed);
    const uint64_t t0 = NowMicros();
    if (msg->flush) {
      flush_all();
      // Everything the driver had pushed before this token is processed.
      shard->freshness.Advance(msg->ingest_watermark);
      shard->busy_micros += NowMicros() - t0;
      AckBarrier();
      continue;
    }
    if (user_queue_wait_ != nullptr && msg->enqueue_micros != 0) {
      user_queue_wait_->Record(t0 > msg->enqueue_micros
                                   ? t0 - msg->enqueue_micros
                                   : 0);
    }
    uint64_t batch_ingest = 0;
    for (const UserAction& action : msg->actions) {
      HandleAction(shard, action, &out);
      if (action.ingest_micros > batch_ingest) {
        batch_ingest = action.ingest_micros;
      }
    }
    shard->freshness.Advance(batch_ingest);
    shard->events += msg->actions.size();
    ++shard->batches;
    const uint64_t elapsed = NowMicros() - t0;
    shard->busy_micros += elapsed;
    if (user_service_ != nullptr) user_service_->Record(elapsed);
  }
  // Queue closed mid-stream (shutdown without drain): discard buffers.
}

void ParallelItemCf::HandleAction(UserShard* shard, const UserAction& action,
                                  std::vector<std::vector<PairDelta>>* out) {
  ++shard->actions;
  ScopedSpan span(action.trace_id, "parallel_cf.user-history");
  UserHistory& history = HistoryFor(shard, action.user);
  if (options_.cf.history_ttl > 0) {
    history.EvictOlderThan(action.timestamp - options_.cf.history_ttl);
  }
  // Callback form of Apply: no per-action pair vector. The rating callback
  // fires before any pair callback, preserving the publish order the
  // consistency model needs — the item-count delta is visible in its stripe
  // before any co-rating delta that depends on it is even buffered.
  history.Apply(
      action, options_.cf.weights, options_.cf.linked_time,
      [this, &action](ItemId item, double rating_delta, double /*new_rating*/) {
        if (rating_delta > 0.0) {
          CountStripe& stripe = ItemStripe(item);
          std::lock_guard<ProfiledMutex> lock(stripe.mu);
          stripe.counts.AddItem(item, rating_delta, action.timestamp);
        }
        // (Zero-delta actions advance windows lazily — the Drain watermark
        // settles all windows, unlike the reference's eager AdvanceTo.)
      },
      [this, &action, out](ItemId other, double co_delta) {
        const size_t p = PairShardOf(PairKey(action.item, other));
        auto& buf = (*out)[p];
        buf.push_back({action.item, other, co_delta, action.timestamp,
                       action.ingest_micros, action.trace_id});
        if (buf.size() >= options_.batch_size) {
          PairMsg msg;
          msg.deltas = std::move(buf);
          buf.clear();
          if (pair_queue_wait_ != nullptr) msg.enqueue_micros = NowMicros();
          pair_shards_[p]->queue.Push(std::move(msg));
        }
      });
}

// --- layers 2+3: count + similarity workers ----------------------------------

void ParallelItemCf::PairWorker(PairShard* shard) {
  RegisterStageThread(StageNameFor("count+sim"));
  // Per-batch itemCount memo (see HandlePairDelta); lives across batches so
  // its capacity stabilizes, but its *entries* are cleared per batch.
  FlatMap64<double> item_counts;
  while (auto msg = shard->queue.Pop()) {
    shard->heartbeat.fetch_add(1, std::memory_order_relaxed);
    const uint64_t t0 = NowMicros();
    if (msg->flush) {
      shard->counts.AdvanceTo(msg->watermark);
      // Phase-2 token: all phase-1 output reached this shard first (FIFO),
      // so the drain's ingest high-water mark is fully processed here too.
      shard->freshness.Advance(msg->ingest_watermark);
      shard->busy_micros += NowMicros() - t0;
      AckBarrier();
      continue;
    }
    if (pair_queue_wait_ != nullptr && msg->enqueue_micros != 0) {
      pair_queue_wait_->Record(t0 > msg->enqueue_micros
                                   ? t0 - msg->enqueue_micros
                                   : 0);
    }
    uint64_t batch_ingest = 0;
    item_counts.Clear();
    const std::vector<PairDelta>& deltas = msg->deltas;
    for (size_t d = 0; d < deltas.size(); ++d) {
      // Overlap the next delta's pair-table misses with this delta's work.
      if (d + 1 < deltas.size()) {
        shard->counts.PrefetchPair(deltas[d + 1].i, deltas[d + 1].j);
      }
      HandlePairDelta(shard, deltas[d], &item_counts);
      if (deltas[d].ingest > batch_ingest) batch_ingest = deltas[d].ingest;
    }
    shard->freshness.Advance(batch_ingest);
    shard->events += msg->deltas.size();
    ++shard->batches;
    const uint64_t elapsed = NowMicros() - t0;
    shard->busy_micros += elapsed;
    if (pair_service_ != nullptr) pair_service_->Record(elapsed);
  }
}

void ParallelItemCf::HandlePairDelta(PairShard* shard, const PairDelta& delta,
                                     FlatMap64<double>* item_counts) {
  ScopedSpan span(delta.trace_id, "parallel_cf.count+sim");
  const uint64_t key = PackPair(delta.i, delta.j);
  if (options_.cf.enable_pruning && shard->pruned.Contains(key)) {
    ++shard->pair_updates_pruned;
    return;
  }

  shard->counts.AddPair(delta.i, delta.j, delta.co_delta, delta.ts);
  ++shard->pair_updates;

  const double pc = shard->counts.PairCount(delta.i, delta.j);
  const double sim =
      EffectiveFrom(CachedItemCountOf(item_counts, delta.i),
                    CachedItemCountOf(item_counts, delta.j), pc);

  // Maintain both items' similar-items lists (striped shared state; one
  // stripe lock at a time, so no ordering discipline is needed).
  {
    ListStripe& stripe = ListStripeOf(delta.i);
    std::lock_guard<ProfiledMutex> lock(stripe.mu);
    GetListLocked(stripe, delta.i).Update(delta.j, sim);
  }
  {
    ListStripe& stripe = ListStripeOf(delta.j);
    std::lock_guard<ProfiledMutex> lock(stripe.mu);
    GetListLocked(stripe, delta.j).Update(delta.i, sim);
  }

  if (!options_.cf.enable_pruning) return;

  const uint32_t n = ++shard->observations[key];
  const double t =
      std::min(ListThresholdOf(delta.i), ListThresholdOf(delta.j));
  if (t <= 0.0) return;
  const double epsilon =
      std::sqrt(hoeffding_ln_inv_delta_ / (2.0 * static_cast<double>(n)));
  if (epsilon < t - sim) {
    shard->pruned.Insert(key);
    ++shard->pairs_pruned;
    // Under concurrency the stale-entry erase is live (a racing update may
    // have admitted the pair with a higher snapshot score); the shrunk
    // list's threshold conservatively reopens to 0 — see TopK::Threshold.
    {
      ListStripe& stripe = ListStripeOf(delta.i);
      std::lock_guard<ProfiledMutex> lock(stripe.mu);
      if (TopK<ItemId>* list = FindListLocked(stripe, delta.i)) {
        list->Erase(delta.j);
      }
    }
    {
      ListStripe& stripe = ListStripeOf(delta.j);
      std::lock_guard<ProfiledMutex> lock(stripe.mu);
      if (TopK<ItemId>* list = FindListLocked(stripe, delta.j)) {
        list->Erase(delta.i);
      }
    }
  }
}

double ParallelItemCf::ItemCountOf(ItemId item) const {
  CountStripe& stripe = ItemStripe(item);
  std::lock_guard<ProfiledMutex> lock(stripe.mu);
  return stripe.counts.ItemCount(item);
}

double ParallelItemCf::CachedItemCountOf(FlatMap64<double>* cache,
                                         ItemId item) const {
  const uint64_t key = PackItem(item);
  if (const double* v = cache->Find(key)) return *v;
  const double c = ItemCountOf(item);
  (*cache)[key] = c;
  return c;
}

double ParallelItemCf::EffectiveFrom(double count_a, double count_b,
                                     double pair_count) const {
  // Eq. 5/10 + shrinkage.
  double sim = ItemSimilarity(pair_count, count_a, count_b);
  if (sim > 0.0 && options_.cf.support_shrinkage > 0.0) {
    sim *= pair_count / (pair_count + options_.cf.support_shrinkage);
  }
  return sim;
}

double ParallelItemCf::SimilarityFromCounts(ItemId a, ItemId b,
                                            double pair_count) const {
  return ItemSimilarity(pair_count, ItemCountOf(a), ItemCountOf(b));
}

double ParallelItemCf::EffectiveFromCounts(ItemId a, ItemId b,
                                           double pair_count) const {
  return EffectiveFrom(ItemCountOf(a), ItemCountOf(b), pair_count);
}

double ParallelItemCf::ListThresholdOf(ItemId item) const {
  ListStripe& stripe = ListStripeOf(item);
  std::lock_guard<ProfiledMutex> lock(stripe.mu);
  const TopK<ItemId>* list = FindListLocked(stripe, item);
  return list == nullptr ? 0.0 : list->Threshold();
}

// --- queries (quiescent pipeline) --------------------------------------------

double ParallelItemCf::Similarity(ItemId a, ItemId b) const {
  const PairKey key(a, b);
  const double pc = pair_shards_[PairShardOf(key)]->counts.PairCount(a, b);
  return SimilarityFromCounts(a, b, pc);
}

double ParallelItemCf::EffectiveSimilarity(ItemId a, ItemId b) const {
  const PairKey key(a, b);
  const double pc = pair_shards_[PairShardOf(key)]->counts.PairCount(a, b);
  return EffectiveFromCounts(a, b, pc);
}

const TopK<ItemId>* ParallelItemCf::SimilarItems(ItemId item) const {
  ListStripe& stripe = ListStripeOf(item);
  std::lock_guard<ProfiledMutex> lock(stripe.mu);
  return FindListLocked(stripe, item);
}

std::vector<ItemId> ParallelItemCf::RecentItemsOf(UserId user) const {
  const UserShard& shard = *user_shards_[UserShardOf(user)];
  const UserHistory* history = FindHistory(shard, user);
  if (history == nullptr) return {};
  const size_t k = options_.cf.recent_k > 0
                       ? static_cast<size_t>(options_.cf.recent_k)
                       : history->size();
  return history->RecentItems(k);
}

double ParallelItemCf::UserRating(UserId user, ItemId item) const {
  const UserHistory* history =
      FindHistory(*user_shards_[UserShardOf(user)], user);
  return history == nullptr ? 0.0 : history->RatingOf(item);
}

Recommendations ParallelItemCf::RecommendForUser(UserId user,
                                                 size_t n) const {
  const UserHistory* history =
      FindHistory(*user_shards_[UserShardOf(user)], user);
  if (history == nullptr) return {};
  return PredictFromRecent(
      *history, RecentItemsOf(user),
      [this](ItemId q) { return SimilarItems(q); },
      [this](ItemId p, ItemId q) { return EffectiveSimilarity(p, q); }, n);
}

bool ParallelItemCf::IsPruned(ItemId a, ItemId b) const {
  return pair_shards_[PairShardOf(PairKey(a, b))]->pruned.Contains(
      PackPair(a, b));
}

void ParallelItemCf::VisitItemCounts(
    const std::function<void(ItemId, double)>& visitor) const {
  for (const auto& stripe : item_stripes_) {
    std::lock_guard lock(stripe->mu);
    stripe->counts.VisitItemCounts(visitor);
  }
}

void ParallelItemCf::VisitSimilarLists(
    const std::function<void(ItemId, const TopK<ItemId>&)>& visitor) const {
  for (const auto& stripe : list_stripes_) {
    std::lock_guard lock(stripe->mu);
    stripe->index.ForEach([&](uint64_t packed, uint32_t slot) {
      visitor(static_cast<ItemId>(packed), stripe->store[slot - 1]);
    });
  }
}

PracticalItemCf::Stats ParallelItemCf::stats() const {
  PracticalItemCf::Stats stats;
  for (const auto& shard : user_shards_) stats.actions += shard->actions;
  for (const auto& shard : pair_shards_) {
    stats.pair_updates += shard->pair_updates;
    stats.pair_updates_pruned += shard->pair_updates_pruned;
    stats.pairs_pruned += shard->pairs_pruned;
  }
  return stats;
}

std::vector<ParallelItemCf::StageStats> ParallelItemCf::stage_stats() const {
  StageStats user;
  user.stage = "user-history";
  user.workers = static_cast<int>(user_shards_.size());
  for (const auto& shard : user_shards_) {
    user.events += shard->events;
    user.batches += shard->batches;
    user.busy_micros += shard->busy_micros;
  }
  StageStats pair;
  pair.stage = "count+sim";
  pair.workers = static_cast<int>(pair_shards_.size());
  for (const auto& shard : pair_shards_) {
    pair.events += shard->events;
    pair.batches += shard->batches;
    pair.busy_micros += shard->busy_micros;
  }
  return {user, pair};
}

uint64_t ParallelItemCf::StageHeartbeat(bool pair_stage) const {
  uint64_t sum = 0;
  if (pair_stage) {
    for (const auto& shard : pair_shards_) {
      sum += shard->heartbeat.load(std::memory_order_relaxed);
    }
  } else {
    for (const auto& shard : user_shards_) {
      sum += shard->heartbeat.load(std::memory_order_relaxed);
    }
  }
  return sum;
}

uint64_t ParallelItemCf::StageBacklog(bool pair_stage) const {
  uint64_t sum = 0;
  if (pair_stage) {
    for (const auto& shard : pair_shards_) sum += shard->queue.size();
  } else {
    for (const auto& shard : user_shards_) sum += shard->queue.size();
  }
  return sum;
}

}  // namespace tencentrec::core
