#include "core/itemcf/parallel_cf.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/trace.h"

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
  options_.batch_size = std::max<size_t>(1, options_.batch_size);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  user_shard_mask_ = MaskFor(static_cast<size_t>(options_.user_shards));
  pair_shard_mask_ = MaskFor(static_cast<size_t>(options_.pair_shards));

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
  for (size_t s = 0; s < kStripes; ++s) {
    stripes_.push_back(std::make_unique<Stripe>(options_.cf));
    stripes_.back()->counts.SetDeferredEviction(true);
  }

  pending_.resize(static_cast<size_t>(options_.user_shards));
  for (int s = 0; s < options_.pair_shards; ++s) {
    auto shard = std::make_unique<PairShard>(options_);
    shard->layer.counts().SetDeferredEviction(true);
    pair_shards_.push_back(std::move(shard));
  }
  for (int s = 0; s < options_.user_shards; ++s) {
    user_shards_.push_back(std::make_unique<UserShard>(options_));
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

ParallelItemCf::Stripe& ParallelItemCf::StripeOf(ItemId item) const {
  return *stripes_[HashInt(static_cast<uint64_t>(item)) & (kStripes - 1)];
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
  for (auto& stripe : stripes_) {
    std::lock_guard<ProfiledMutex> lock(stripe->count_mu);
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
  ScopedSpan span(action.trace_id, "parallel_cf.user-history");
  // The rating callback fires before any pair callback, preserving the
  // publish order the consistency model needs — the item-count delta is
  // visible in its stripe before any co-rating delta that depends on it is
  // even buffered.
  shard->layer.Apply(
      action,
      [this, &action](ItemId item, double rating_delta, double /*new_rating*/) {
        if (rating_delta > 0.0) {
          Stripe& stripe = StripeOf(item);
          std::lock_guard<ProfiledMutex> lock(stripe.count_mu);
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
  // Per-batch itemCount memo (see StripedItems); lives across batches so
  // its capacity stabilizes, but its *entries* are cleared per batch.
  FlatMap64<double> item_counts;
  StripedItems items{this, &item_counts};
  while (auto msg = shard->queue.Pop()) {
    shard->heartbeat.fetch_add(1, std::memory_order_relaxed);
    const uint64_t t0 = NowMicros();
    if (msg->flush) {
      shard->layer.counts().AdvanceTo(msg->watermark);
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
        shard->layer.counts().PrefetchPair(deltas[d + 1].i, deltas[d + 1].j);
      }
      const PairDelta& delta = deltas[d];
      {
        ScopedSpan span(delta.trace_id, "parallel_cf.count+sim");
        shard->layer.Update(delta.i, delta.j, delta.co_delta, delta.ts, items);
      }
      if (delta.ingest > batch_ingest) batch_ingest = delta.ingest;
    }
    shard->freshness.Advance(batch_ingest);
    shard->events += msg->deltas.size();
    ++shard->batches;
    const uint64_t elapsed = NowMicros() - t0;
    shard->busy_micros += elapsed;
    if (pair_service_ != nullptr) pair_service_->Record(elapsed);
  }
}

double ParallelItemCf::ItemCountOf(ItemId item) const {
  Stripe& stripe = StripeOf(item);
  std::lock_guard<ProfiledMutex> lock(stripe.count_mu);
  return stripe.counts.ItemCount(item);
}

double ParallelItemCf::StripedItems::ItemCount(ItemId item) const {
  const uint64_t key = PackItem(item);
  if (const double* v = memo->Find(key)) return *v;
  const double c = cf->ItemCountOf(item);
  (*memo)[key] = c;
  return c;
}

void ParallelItemCf::StripedItems::Update(ItemId item, ItemId other,
                                          double sim) const {
  Stripe& stripe = cf->StripeOf(item);
  std::lock_guard<ProfiledMutex> lock(stripe.list_mu);
  stripe.lists.Update(item, other, sim);
}

double ParallelItemCf::StripedItems::Threshold(ItemId item) const {
  Stripe& stripe = cf->StripeOf(item);
  std::lock_guard<ProfiledMutex> lock(stripe.list_mu);
  return stripe.lists.Threshold(item);
}

void ParallelItemCf::StripedItems::Erase(ItemId item, ItemId other) const {
  Stripe& stripe = cf->StripeOf(item);
  std::lock_guard<ProfiledMutex> lock(stripe.list_mu);
  stripe.lists.Erase(item, other);
}

// --- queries (quiescent pipeline) --------------------------------------------

double ParallelItemCf::Similarity(ItemId a, ItemId b) const {
  return pair_shards_[PairShardOf(PairKey(a, b))]->layer.Similarity(
      a, b, [this](ItemId item) { return ItemCountOf(item); });
}

double ParallelItemCf::EffectiveSimilarity(ItemId a, ItemId b) const {
  return pair_shards_[PairShardOf(PairKey(a, b))]->layer.EffectiveSimilarity(
      a, b, [this](ItemId item) { return ItemCountOf(item); });
}

const TopK<ItemId>* ParallelItemCf::SimilarItems(ItemId item) const {
  Stripe& stripe = StripeOf(item);
  std::lock_guard<ProfiledMutex> lock(stripe.list_mu);
  return stripe.lists.Find(item);
}

std::vector<ItemId> ParallelItemCf::RecentItemsOf(UserId user) const {
  return user_shards_[UserShardOf(user)]->layer.RecentItemsOf(user);
}

double ParallelItemCf::UserRating(UserId user, ItemId item) const {
  return user_shards_[UserShardOf(user)]->layer.UserRating(user, item);
}

Recommendations ParallelItemCf::RecommendForUser(UserId user,
                                                 size_t n) const {
  return user_shards_[UserShardOf(user)]->layer.RecommendForUser(
      user, n, [this](ItemId q) { return SimilarItems(q); },
      [this](ItemId p, ItemId q) { return EffectiveSimilarity(p, q); });
}

bool ParallelItemCf::IsPruned(ItemId a, ItemId b) const {
  return pair_shards_[PairShardOf(PairKey(a, b))]->layer.IsPruned(a, b);
}

ItemCfStats ParallelItemCf::stats() const {
  ItemCfStats stats;
  for (const auto& shard : user_shards_) stats += shard->layer.stats();
  for (const auto& shard : pair_shards_) stats += shard->layer.stats();
  return stats;
}

std::vector<ParallelItemCf::StageStats> ParallelItemCf::stage_stats() const {
  auto stage = [](const char* name, const auto& shards) {
    StageStats out;
    out.stage = name;
    out.workers = static_cast<int>(shards.size());
    for (const auto& shard : shards) {
      out.events += shard->events;
      out.batches += shard->batches;
      out.busy_micros += shard->busy_micros;
    }
    return out;
  };
  return {stage("user-history", user_shards_),
          stage("count+sim", pair_shards_)};
}

uint64_t ParallelItemCf::StageHeartbeat(bool pair_stage) const {
  auto sum = [](const auto& shards) {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      total += shard->heartbeat.load(std::memory_order_relaxed);
    }
    return total;
  };
  return pair_stage ? sum(pair_shards_) : sum(user_shards_);
}

uint64_t ParallelItemCf::StageBacklog(bool pair_stage) const {
  auto sum = [](const auto& shards) {
    uint64_t total = 0;
    for (const auto& shard : shards) total += shard->queue.size();
    return total;
  };
  return pair_stage ? sum(pair_shards_) : sum(user_shards_);
}

}  // namespace tencentrec::core
