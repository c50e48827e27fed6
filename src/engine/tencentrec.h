#ifndef TENCENTREC_ENGINE_TENCENTREC_H_
#define TENCENTREC_ENGINE_TENCENTREC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/itemcf/parallel_cf.h"
#include "obs/admin_server.h"
#include "obs/health.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "tdaccess/cluster.h"
#include "tdaccess/producer.h"
#include "tdstore/cluster.h"
#include "topo/app.h"
#include "topo/query.h"
#include "tstorm/cluster.h"

namespace tencentrec::engine {

class StallWatchdog;  // engine/monitor.h (which includes this header)

/// The full TencentRec deployment of Fig. 9, in one object: a TDAccess
/// cluster collecting application action streams, the Storm-style
/// processing tier (TDProcess) running the app's topology, a TDStore
/// cluster holding all recommendation state, and the recommender-engine
/// query path reading from it.
///
/// Ingestion is batch-at-a-time: each ProcessBatch()/ProcessFromAccess()
/// call spins up a fresh topology, streams the batch through it to drain,
/// and tears it down. Because every bolt is stateless (state in TDStore),
/// consecutive batches compose exactly like one continuous stream — this is
/// the same property that makes worker restarts safe, and tests verify
/// both.
class TencentRec {
 public:
  struct Options {
    topo::AppOptions app;
    tdstore::Cluster::Options store;
    tdaccess::Cluster::Options access;
    /// Topic carrying this app's action stream on TDAccess.
    std::string topic = "user_actions";
    int topic_partitions = 4;
    /// Spout instances for ProcessFromAccess(): each joins the consumer
    /// group as its own member, so the master balances the topic's
    /// partitions across them ("in parallelism of partitions", §3.2).
    int spout_parallelism = 1;
    /// Materialize per-user results via ResultStorageBolt.
    bool materialize_results = false;
    /// app.parallelism == 0 enables automatic parallelism (§7 future work):
    /// each ProcessBatch sizes the keyed bolts from the batch's event rate.
    double auto_parallelism_event_cost_us = 50.0;
    /// Envelopes (tuples) each topology task's input queue holds before
    /// producers block (tstorm::LocalCluster::Options). Lowering it changes
    /// which pairs the CF bolts prune (DESIGN.md §17).
    size_t queue_capacity = 4096;
    /// Also stream every ProcessBatch through an in-memory sharded
    /// ParallelItemCf (the Fig. 4 pipeline as real threads). Durable state
    /// stays in TDStore; the mirror serves low-latency similarity /
    /// recommendation queries without a store round-trip, and its
    /// per-stage counters appear in the monitor snapshot.
    bool mirror_parallel_cf = false;
    int mirror_user_shards = 2;
    int mirror_pair_shards = 2;
    /// With store durability on (store.durability.enabled): checkpoint the
    /// TDStore cluster every N batches — snapshot all instances, truncate
    /// the WALs behind them — so recovery replays a bounded log. 0 never
    /// auto-checkpoints; call Checkpoint() explicitly. Independent of the
    /// per-batch commit barrier, which is always appended when durable.
    int64_t checkpoint_interval_batches = 0;
    /// Sampled per-tuple tracing: trace 1 in N actions end to end
    /// (spout -> bolts -> store). 0 leaves the process-wide sampling rate
    /// untouched (tracing stays off unless something else enabled it).
    uint32_t trace_sample_every = 0;
    /// Embedded ops HTTP plane (/metrics, /vars, /healthz, /readyz,
    /// /traces). Loopback-only by default; port 0 picks an ephemeral port
    /// (read it back via admin_server()->port()).
    bool enable_admin_server = false;
    std::string admin_bind_address = "127.0.0.1";
    int admin_port = 0;
    /// Background stall watchdog over the ParallelItemCf mirror stages (and
    /// any topology run) — flips /healthz to degraded on a wedged stage.
    bool enable_watchdog = false;
    uint64_t watchdog_period_ms = 250;
    /// In-process metric history: a background sampler snapshots the
    /// registry into a fixed ring every sample period, served via
    /// /timeseries?metric=...&window=.... The freshness gauges are
    /// published as the sampler's pre-sample hook, so every sample carries
    /// watermark lags computed at the sample instant.
    bool enable_timeseries = false;
    uint64_t timeseries_sample_period_ms = 1000;
    size_t timeseries_capacity = 600;
    /// Burn-rate SLO evaluation over the time-series ring (implies
    /// enable_timeseries); default objectives cover event-to-store p99,
    /// end-to-end freshness lag, store error rate, and stall-freedom.
    /// Breaches file into HealthRegistry (/healthz, and /readyz for
    /// readiness-gating objectives) and are served via /slo.
    bool enable_slo = false;
    /// Default-objective thresholds (see DESIGN.md §12).
    uint64_t slo_e2s_p99_micros = 2ull * 1000 * 1000;
    uint64_t slo_freshness_lag_micros = 5ull * 1000 * 1000;
    double slo_store_error_ratio = 0.001;
    /// Burn-rate windows for the default objectives; tests shrink these so
    /// one SampleNow/EvaluateNow pair flips a breach deterministically.
    uint64_t slo_short_window_micros = 60ull * 1000 * 1000;
    uint64_t slo_long_window_micros = 300ull * 1000 * 1000;
    /// Continuous CPU profiling plane (DESIGN.md §13): per-thread SIGPROF
    /// sampling of every registered stage thread, served at
    /// /profile/cpu?seconds=N&format=folded|json, /profile/contention and
    /// the /profile/enabled kill switch (routes exist whenever the admin
    /// server does). Off by default: the profiler owns the process-wide
    /// SIGPROF disposition, which embedding applications may want.
    bool enable_profiler = false;
    int profiler_hz = 97;
  };

  static Result<std::unique_ptr<TencentRec>> Create(Options options);
  ~TencentRec();

  /// --- CB catalog (Application Specific setup) ---

  /// Registers an item's content tags in TDStore; the tag inverted index
  /// is updated for candidate generation.
  Status RegisterItem(core::ItemId item, const core::TagVector& tags);

  /// --- ingestion ---

  /// Runs one topology over `actions` (VectorActionSpout) to completion.
  /// Actions breaking the id contract (core::HasValidIds) are dropped
  /// before the topology or the mirror sees them, counted on
  /// topo::RejectedActionsCounter. `restart_components` simulates worker
  /// crashes of those bolts while the batch streams.
  Status ProcessBatch(const std::vector<core::UserAction>& actions,
                      const std::vector<std::string>& restart_components = {});

  /// Publishes actions onto the TDAccess topic (the applications' side).
  Status PublishActions(const std::vector<core::UserAction>& actions);

  /// Runs one topology consuming the TDAccess topic until caught up.
  Status ProcessFromAccess();

  /// Checkpoints the TDStore cluster now (no-op when durability is off):
  /// snapshots every instance and resets the WALs behind the snapshots.
  Status Checkpoint();

  /// The barrier id of the last committed batch (resumes from the store's
  /// recovered barrier after a restart; 0 = nothing committed).
  uint64_t last_barrier() const { return barrier_seq_; }

  /// --- queries (recommender engine) ---
  topo::StoreQuery& query() { return *query_; }

  /// The shared batched-query-tier cache. Hand this to extra per-thread
  /// StoreQuery instances so concurrent querents coalesce identical
  /// in-flight reads into one store round-trip.
  std::shared_ptr<topo::QueryCache> query_cache() { return query_cache_; }

  /// --- introspection / fault injection ---
  tdstore::Cluster* store() { return store_.get(); }
  tdaccess::Cluster* access() { return access_.get(); }
  /// The in-memory sharded CF mirror (nullptr unless mirror_parallel_cf).
  /// Drained after every ProcessBatch, so queries on it are always valid.
  core::ParallelItemCf* parallel_cf() { return parallel_cf_.get(); }
  const core::ParallelItemCf* parallel_cf() const {
    return parallel_cf_.get();
  }
  const topo::AppContext& app() const { return *app_; }
  const Options& options() const { return options_; }
  /// Metrics of the most recent topology run.
  const std::vector<tstorm::ComponentMetrics>& last_metrics() const {
    return last_metrics_;
  }
  /// Ops plane (nullptr unless enable_admin_server).
  obs::AdminServer* admin_server() { return admin_.get(); }
  /// Liveness/readiness registry backing /healthz and /readyz.
  obs::HealthRegistry& health() { return health_; }
  /// The stall watchdog (nullptr unless enable_watchdog).
  StallWatchdog* watchdog() { return watchdog_.get(); }
  /// Metric history ring (nullptr unless enable_timeseries/enable_slo).
  obs::TimeSeriesStore* timeseries() { return timeseries_.get(); }
  /// Burn-rate SLO engine (nullptr unless enable_slo).
  obs::SloRegistry* slo() { return slo_.get(); }

 private:
  explicit TencentRec(Options options);
  Status Init();
  Status RunTopology(tstorm::SpoutFactory spout,
                     const std::vector<std::string>& restart_components,
                     int spout_parallelism);
  /// Post-batch durability hook: appends the next commit barrier to every
  /// store WAL (after the topology's last write-behind flush, so the
  /// barrier covers a consistent post-flush state) and auto-checkpoints on
  /// the configured interval. No-op when durability is off.
  Status CommitStoreBarrier();

  Options options_;
  std::unique_ptr<tdstore::Cluster> store_;
  std::unique_ptr<tdaccess::Cluster> access_;
  std::unique_ptr<topo::AppContext> app_;
  std::unique_ptr<tdstore::Client> admin_client_;
  std::unique_ptr<tdaccess::Producer> producer_;
  std::shared_ptr<topo::QueryCache> query_cache_;
  std::unique_ptr<topo::StoreQuery> query_;
  std::unique_ptr<core::ParallelItemCf> parallel_cf_;
  std::vector<tstorm::ComponentMetrics> last_metrics_;
  int64_t batches_run_ = 0;
  /// Monotone commit-barrier sequence; seeded from the store's recovered
  /// barrier so numbering continues across restarts.
  uint64_t barrier_seq_ = 0;

  obs::HealthRegistry health_;
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  /// Declared after timeseries_ (reads its ring) and health_ (files
  /// breaches); destroyed before both.
  std::unique_ptr<obs::SloRegistry> slo_;
  std::unique_ptr<obs::AdminServer> admin_;
  /// True when this engine's Init() started the process-wide profiler (so
  /// only this engine's destructor stops it).
  bool profiler_started_ = false;
  /// Declared after the things its sources sample (parallel_cf_); destroyed
  /// first by the explicit destructor, which stops it before anything it
  /// watches goes away.
  std::unique_ptr<StallWatchdog> watchdog_;
};

}  // namespace tencentrec::engine

#endif  // TENCENTREC_ENGINE_TENCENTREC_H_
