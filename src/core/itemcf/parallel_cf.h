#ifndef TENCENTREC_CORE_ITEMCF_PARALLEL_CF_H_
#define TENCENTREC_CORE_ITEMCF_PARALLEL_CF_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/profiled_mutex.h"
#include "common/queue.h"
#include "common/topk.h"
#include "core/itemcf/item_cf.h"
#include "core/itemcf/layers.h"
#include "core/itemcf/window_counts.h"
#include "obs/freshness.h"

namespace tencentrec::core {

/// The paper's three-layer parallel CF pipeline (Fig. 4) as a real
/// multi-threaded sharded executor — the in-process analogue of the Storm
/// topology, sized for heavy traffic:
///
///   driver ──field-group by user──▶ N user-shard workers   (layer 1)
///          ──field-group by pair──▶ M pair-shard workers   (layers 2+3)
///
/// It shards PracticalItemCf's layers (core/itemcf/layers.h) and adds only
/// the execution around them. Layer 1 (user history): each worker
/// exclusively owns a UserLayer with the histories of the users hashing to
/// it and forwards its pair deltas. Layers 2+3 (count + similarity): each
/// worker exclusively owns a PairLayer with the windowed pairCount state,
/// n_ij and pruned set of the pairs hashing to it, and runs Algorithm 1.
/// itemCounts and per-item top-K lists are cross-shard by nature (a pair
/// touches two items) and form the pair layers' item side: kStripes
/// stripes, each a WindowedCounts and a SimilarLists under its own mutex.
///
/// Transport is the BoundedQueue from common/ (blocking push =
/// backpressure); events travel in batches to amortize queue wakeups.
///
/// Consistency model: all counter state is commutative deltas, so the
/// drained state is independent of cross-shard interleaving and matches
/// PracticalItemCf exactly (asserted by tests/parallel_cf_test.cc).
/// Mid-stream similarity reads are racy-but-monotone snapshots, which only
/// affects transient top-K scores and pruning timing — the same tolerance
/// the paper accepts for its distributed pipeline. Queries are valid
/// whenever the pipeline is quiescent, i.e. after Drain().
class ParallelItemCf {
 public:
  struct Options {
    /// Algorithm knobs, shared verbatim with the reference implementation.
    ItemCfOptions cf;

    /// Layer-1 workers (field-grouped by user id).
    int user_shards = 4;
    /// Layer-2+3 workers (field-grouped by PairKey).
    int pair_shards = 4;
    /// Batches (not events) per worker input queue before backpressure.
    size_t queue_capacity = 256;
    /// Events per batch; larger batches amortize queue synchronization.
    size_t batch_size = 128;
    /// Prefix for the executor's registry histograms
    /// ("<scope>.<stage>.queue_wait_us" / ".service_us"). Empty disables
    /// per-batch instrumentation for this instance even when the global
    /// metrics switch is on.
    std::string metrics_scope = "parallel_cf";
  };

  /// Per-stage execution counters for engine/monitor.
  struct StageStats {
    std::string stage;
    int workers = 0;
    uint64_t events = 0;        ///< tuples consumed by the stage
    uint64_t batches = 0;       ///< queue messages consumed
    uint64_t busy_micros = 0;   ///< wall time spent executing tuples
  };

  explicit ParallelItemCf(Options options);
  ~ParallelItemCf();

  ParallelItemCf(const ParallelItemCf&) = delete;
  ParallelItemCf& operator=(const ParallelItemCf&) = delete;

  /// Enqueues one action (driver thread only). Blocks when the target user
  /// shard's queue is full (backpressure).
  void ProcessAction(const UserAction& action);
  void ProcessActions(const std::vector<UserAction>& actions);

  /// Barrier: flushes every in-flight batch through both layers, advances
  /// all sliding windows to the stream's high-water timestamp, and returns
  /// with the pipeline quiescent. Queries below are only meaningful (and
  /// data-race-free) after a Drain.
  void Drain();

  /// Drains, closes all queues and joins the workers. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// --- queries (require quiescence, i.e. after Drain()) ---

  double Similarity(ItemId a, ItemId b) const;
  double EffectiveSimilarity(ItemId a, ItemId b) const;
  const TopK<ItemId>* SimilarItems(ItemId item) const;
  Recommendations RecommendForUser(UserId user, size_t n) const;
  std::vector<ItemId> RecentItemsOf(UserId user) const;
  double UserRating(UserId user, ItemId item) const;
  bool IsPruned(ItemId a, ItemId b) const;

  /// Aggregated algorithm counters (summed over the shards' layers).
  ItemCfStats stats() const;
  /// Per-stage executor counters ("user-history", "count+sim").
  std::vector<StageStats> stage_stats() const;

  /// Live stage liveness for the stall watchdog, safe while workers run:
  /// heartbeat sums the shards' per-message atomic counters, backlog sums
  /// queue depths. pair_stage=false addresses the user-history layer.
  uint64_t StageHeartbeat(bool pair_stage) const;
  uint64_t StageBacklog(bool pair_stage) const;

  const Options& options() const { return options_; }

 private:
  /// One co-rating delta travelling from layer 1 to layers 2+3.
  struct PairDelta {
    ItemId i = 0;
    ItemId j = 0;
    double co_delta = 0.0;
    EventTime ts = 0;
    /// Ingest stamp of the source action (event-time watermark carrier;
    /// 0 = unstamped).
    uint64_t ingest = 0;
    /// Sampled-tracing id of the source action (0 = untraced).
    uint64_t trace_id = 0;
  };
  struct UserMsg {
    std::vector<UserAction> actions;
    bool flush = false;
    /// MonoMicros at Push time (0 when instrumentation is off); the worker
    /// subtracts it from its dequeue time to get queue-wait.
    uint64_t enqueue_micros = 0;
    /// On flush tokens: the driver's high-water ingest stamp. FIFO order
    /// means everything at or below it has been handed to the worker, so
    /// processing the token advances the stage's freshness watermark.
    uint64_t ingest_watermark = 0;
  };
  struct PairMsg {
    std::vector<PairDelta> deltas;
    bool flush = false;
    EventTime watermark = 0;
    uint64_t enqueue_micros = 0;
    /// See UserMsg::ingest_watermark — carried by the phase-2 flush token
    /// so the pair stage's freshness catches up even when a drain interval
    /// produced no pair deltas (e.g. all zero-delta actions).
    uint64_t ingest_watermark = 0;
  };

  /// One worker of a stage. The layer is owned exclusively by the
  /// worker's thread.
  template <typename Msg, typename Layer>
  struct Shard {
    explicit Shard(const Options& options)
        : queue(options.queue_capacity), layer(options.cf) {}
    BoundedQueue<Msg> queue;
    std::thread thread;
    Layer layer;
    uint64_t events = 0;
    uint64_t batches = 0;
    uint64_t busy_micros = 0;
    /// Liveness heartbeat, bumped (relaxed) per popped message; unlike the
    /// counters above it may be read while the worker runs.
    std::atomic<uint64_t> heartbeat{0};
    /// Event-time watermark of this shard's stage (advanced per batch).
    obs::FreshnessTracker::ScopedSlot freshness;
  };
  using UserShard = Shard<UserMsg, UserLayer>;
  /// Its PairLayer's counts hold the pairCount side only; itemCounts live
  /// in the stripes.
  using PairShard = Shard<PairMsg, PairLayer>;

  /// One stripe of the shared item state: the itemCounts (written by layer
  /// 1, read by layers 2+3) and similar lists (a pair update touches both
  /// its items') of the items hashing to it, each under its own lock. The
  /// locks are profiled (DESIGN.md §13), so wait time on them is attributed
  /// per holder stage at /profile/contention.
  struct alignas(64) Stripe {
    explicit Stripe(const ItemCfOptions& cf)
        : counts(cf.session_length, cf.window_sessions), lists(cf.top_k) {}
    mutable ProfiledMutex count_mu{"parallel_cf.count_stripe"};
    WindowedCounts counts;
    alignas(64) mutable ProfiledMutex list_mu{"parallel_cf.list_stripe"};
    SimilarLists lists;
  };

  /// The pair layers' item side (see PairLayer): every call takes one
  /// stripe lock, one at a time, so no ordering discipline is needed.
  /// `memo` is the worker's per-batch itemCount memo — cleared at every
  /// batch boundary, so a similarity never reads counts staler than the
  /// start of its own batch (within the racy-but-monotone snapshot
  /// tolerance of the class comment, and never zero for a live pair: the
  /// upstream AddItem happens-before the delta, so the first, uncached read
  /// per batch already sees a positive count). One stripe lock per distinct
  /// item per batch instead of two per delta.
  struct StripedItems {
    const ParallelItemCf* cf;
    FlatMap64<double>* memo;

    double ItemCount(ItemId item) const;
    void Update(ItemId item, ItemId other, double sim) const;
    double Threshold(ItemId item) const;
    void Erase(ItemId item, ItemId other) const;
  };

  /// Stripes of the shared item state; a power of two, so an item's stripe
  /// is `hash & (kStripes - 1)`.
  static constexpr size_t kStripes = 64;

  /// "<metrics_scope or parallel_cf>.<stage>" — the registered stage name
  /// for a worker thread (profiler attribution + pthread name).
  std::string StageNameFor(const char* stage) const;

  size_t UserShardOf(UserId user) const;
  size_t PairShardOf(const PairKey& key) const;
  Stripe& StripeOf(ItemId item) const;

  void UserWorker(UserShard* shard);
  void PairWorker(PairShard* shard);
  void HandleAction(UserShard* shard, const UserAction& action,
                    std::vector<std::vector<PairDelta>>* out);

  double ItemCountOf(ItemId item) const;

  void PushUserBatch(size_t shard_index);
  void BeginBarrier(int acks);
  void AwaitBarrier();
  void AckBarrier();

  Options options_;

  /// Routing masks for power-of-two shard counts (the defaults): `hash &
  /// mask` instead of a hardware divide on every route. 0 = count is not a
  /// power of two, fall back to modulo.
  size_t user_shard_mask_ = 0;
  size_t pair_shard_mask_ = 0;

  /// Registry histograms, resolved once in the constructor; all null when
  /// metrics are globally disabled or metrics_scope is empty, which reduces
  /// the per-batch overhead to a null check.
  LatencyHistogram* user_queue_wait_ = nullptr;
  LatencyHistogram* user_service_ = nullptr;
  LatencyHistogram* pair_queue_wait_ = nullptr;
  LatencyHistogram* pair_service_ = nullptr;

  std::vector<std::unique_ptr<UserShard>> user_shards_;
  std::vector<std::unique_ptr<PairShard>> pair_shards_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  /// Driver-side per-user-shard input batches (driver thread only).
  std::vector<std::vector<UserAction>> pending_;
  /// High-water event time of the stream (driver thread only).
  EventTime max_ts_ = 0;
  /// High-water ingest stamp of the stream (driver thread only); carried on
  /// drain flush tokens so both stages' freshness watermarks settle.
  uint64_t max_ingest_ = 0;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_pending_ = 0;

  bool shutdown_ = false;
};

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_PARALLEL_CF_H_
