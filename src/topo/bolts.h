#ifndef TENCENTREC_TOPO_BOLTS_H_
#define TENCENTREC_TOPO_BOLTS_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "obs/freshness.h"
#include "tdstore/client.h"
#include "topo/action_codec.h"
#include "topo/app.h"
#include "topo/combiner.h"
#include "topo/store_cache.h"

namespace tencentrec::topo {

/// Shared plumbing: every bolt owns a TDStore client and a fine-grained
/// cache, both created in Prepare() — so a simulated worker crash-restart
/// drops all transient state and must recover from TDStore, which is the
/// paper's fault-tolerance contract (§3.3, §5.1).
class StoreBolt : public tstorm::IBolt {
 public:
  explicit StoreBolt(const AppContext* app) : app_(app) {}

  void Prepare(const tstorm::TaskContext& ctx) override;

  /// Ships any write-behind puts still staged in the cache, and logs the
  /// first failed flush since the last Cleanup (an auto-flush reports
  /// nowhere else). tstorm runs Cleanup after the last Execute/Tick and
  /// before Run() returns, so every batch's writes reach the store before
  /// the engine commits the batch barrier (or a query reads the batch's
  /// results).
  void Cleanup() override;

 protected:
  const AppOptions& options() const { return app_->options; }
  const Keys& keys() const { return app_->keys; }

  /// Ships `combiner`'s whole buffer as one MultiIncrDouble: one grouped
  /// call per host instead of an increment round trip per key, bypassing
  /// the cache. Keys whose increment fails are
  /// re-buffered into the combiner (at-least-once: the next flush retries
  /// them) and the error is logged and returned. Once every delta has
  /// landed, records the buffered stamps (event-to-store latency from the
  /// oldest, the watermark at the newest) and clears them.
  Status FlushCombiner(Combiner* combiner);

  /// Sliding-window sum of a per-session double counter (Eq. 10 read side):
  /// sums `key_of(session)` over the window ending at the session of `now`
  /// through WindowPlan, read through this worker's cache.
  ///
  /// Only for counters this worker writes: the fine-grained cache is valid
  /// for those alone (§5.2 — stream grouping guarantees single-writer,
  /// which is what makes cached values trustworthy); caching another bolt's
  /// counter would pin its first-seen value forever. Read those with one
  /// grouped Client::MultiGetBatch of a WindowPlan instead.
  Result<double> WindowSum(
      const std::function<std::string(int64_t session)>& key_of,
      EventTime now);

  /// Records `now - ingest_micros` against this component's event-to-store
  /// histogram ("topo.<app>.<component>.event_to_store_us") and advances
  /// this instance's freshness watermark. Call right after the derived
  /// state lands in TDStore. A traced tuple's id is captured as the
  /// bucket's exemplar, linking /metrics to /traces. No-op for unstamped
  /// tuples (ingest == 0); with metrics disabled at Prepare time only the
  /// watermark advances (freshness is an obs-plane invariant, not a
  /// measurement).
  void RecordEventToStore(uint64_t ingest_micros, uint64_t trace_id = 0) {
    freshness_.Advance(ingest_micros);
    if (e2s_ == nullptr || ingest_micros == 0) return;
    const uint64_t now = MonoMicros();
    const uint64_t latency = now > ingest_micros ? now - ingest_micros : 0;
    if (trace_id != 0) {
      e2s_->RecordWithExemplar(latency, trace_id);
    } else {
      e2s_->Record(latency);
    }
  }

  /// Watermark-only advance, for completion paths with no store write (a
  /// pass-through emit, a no-change upsert) and for combiner flushes, which
  /// land everything buffered up to the *newest* pending stamp while the
  /// latency histogram gets the honest *oldest* stamp.
  void AdvanceFreshness(uint64_t ingest_micros) {
    freshness_.Advance(ingest_micros);
  }

  const AppContext* app_;
  tstorm::TaskContext ctx_;
  std::unique_ptr<tdstore::Client> client_;
  /// The bolt's write-behind buffer for everything it writes but its
  /// combiner's counters.
  std::unique_ptr<StoreCache> cache_;
  LatencyHistogram* e2s_ = nullptr;
  /// This instance's event-time watermark register (stage = component name).
  obs::FreshnessTracker::ScopedSlot freshness_;
  /// Span names for this component's hops, resolved once in Prepare so the
  /// per-tuple ScopedSpan constructors never allocate. Stable for the task's
  /// lifetime, as ScopedSpan requires.
  std::string span_name_;
  std::string flush_span_name_;
};

/// The /vars counter ("topo.<app>.rejected_actions") of actions dropped at
/// the input: undecodable, or breaking the id contract of
/// core::HasValidIds. PretreatmentBolt and TencentRec::ProcessBatch share
/// it, and each rejected action is counted once.
Counter* RejectedActionsCounter(const AppContext& app);

/// Preprocessing layer (Fig. 6): parses and validates raw action tuples,
/// drops unqualified ones (counted on RejectedActionsCounter), forwards the
/// rest. Application Common Unit.
class PretreatmentBolt : public StoreBolt {
 public:
  explicit PretreatmentBolt(const AppContext* app) : StoreBolt(app) {}

  std::vector<tstorm::StreamDecl> DeclareOutputs() const override {
    return {ActionStreamDecl("user_action")};
  }

  void Prepare(const tstorm::TaskContext& ctx) override;
  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;

 private:
  Counter* rejected_ = nullptr;
};

/// Layer 1 of the multi-layer CF (Fig. 4): grouped by user id, owns the
/// user's behaviour history in TDStore, turns each action into ∆rating and
/// ∆co-rating tuples (§4.1.3), and fans them out (every derived stream
/// carries the source action's ingest stamp for latency tracing):
///   "item_delta"  (item, ∆r, ts, ingest, trace)       -> ItemCountBolt
///   "pair_delta"  (lo, hi, ∆co, ts, ingest, trace)    -> CfPairBolt
///   "group_delta" (group, item, w, ts, ingest, trace) -> GroupCountBolt
/// The group_delta hop is the multi-hash technique of §5.4: demographic
/// counters are keyed by group, not user, so they take a second hash stage
/// instead of conflicting writes from user-grouped workers.
class UserHistoryBolt : public StoreBolt {
 public:
  explicit UserHistoryBolt(const AppContext* app) : StoreBolt(app) {}

  std::vector<tstorm::StreamDecl> DeclareOutputs() const override {
    return {
        {"item_delta", {"item", "delta", "ts", "ingest", "trace"}},
        {"pair_delta", {"lo", "hi", "delta", "ts", "ingest", "trace"}},
        {"group_delta", {"group", "item", "delta", "ts", "ingest", "trace"}},
    };
  }

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;
};

/// Layer 2a (Fig. 4): grouped by item id, incrementally accumulates
/// itemCount_w in TDStore (Eq. 6/8/10) through the combiner (§5.3).
class ItemCountBolt : public StoreBolt {
 public:
  explicit ItemCountBolt(const AppContext* app) : StoreBolt(app) {}

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;
  void Tick(tstorm::OutputCollector& out) override;

  const Combiner::Stats& combiner_stats() const { return combiner_.stats(); }

 private:
  Combiner combiner_;
};

/// Layer 2b + 3 (Fig. 4, Algorithm 1): grouped by item pair — the key
/// grouping is what lets the paper claim "only a single worker node should
/// operate over a specific item pair ... the calculation can be safely
/// scaled". Updates pairCount_w, computes the new similarity from windowed
/// counts (Eq. 5/10), maintains the pair's Hoeffding state (n_ij, pruned
/// flag; Eq. 9) and emits:
///   "sim_update" (item, other, sim, ingest, trace) x2 -> SimilarListBolt
///   "prune"      (item, other)                     x2 -> SimilarListBolt
class CfPairBolt : public StoreBolt {
 public:
  explicit CfPairBolt(const AppContext* app) : StoreBolt(app) {}

  std::vector<tstorm::StreamDecl> DeclareOutputs() const override {
    return {
        {"sim_update", {"item", "other", "sim", "ingest", "trace"}},
        {"prune", {"item", "other"}},
    };
  }

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;

  int64_t pair_updates() const { return pair_updates_; }
  int64_t pruned_skips() const { return pruned_skips_; }
  int64_t prune_decisions() const { return prune_decisions_; }

 private:
  double hoeffding_ln_inv_delta_ = 0.0;
  int64_t pair_updates_ = 0;
  int64_t pruned_skips_ = 0;
  int64_t prune_decisions_ = 0;

  void Prepare(const tstorm::TaskContext& ctx) override;
};

/// Owns each item's similar-items top-K blob and its admission threshold
/// key (grouped by item — the second stage that serializes writes to
/// sim:<item> the same way §5.4 serializes group counters).
///
/// List scores are the similarities computed upstream at emission time;
/// because the statistics paths are decoupled (§5.1), a score can be
/// transiently stale, and a list frozen at end-of-stream can hold a
/// transient ordering. Continued traffic self-corrects (every touch of a
/// pair rewrites its entry), and the serving path recomputes scores from
/// current counts — the same convergence argument the production system
/// relies on at 4B events/day.
class SimilarListBolt : public StoreBolt {
 public:
  explicit SimilarListBolt(const AppContext* app) : StoreBolt(app) {}

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;
};

/// DB statistics: grouped by (group, item), accumulates windowed group
/// popularity counts through the combiner, then notifies the hot-list
/// stage:
///   "hot_touch" (group, item, ts, ingest, trace) -> HotListBolt [by group]
/// Touches are emitted at Tick, once the flush has landed every touched
/// counter, so the hot-list stage reads current counts. Each carries the
/// flushed batch's newest ingest stamp (the watermark the hot list may
/// reach) and its first sampled trace.
class GroupCountBolt : public StoreBolt {
 public:
  explicit GroupCountBolt(const AppContext* app) : StoreBolt(app) {}

  std::vector<tstorm::StreamDecl> DeclareOutputs() const override {
    return {{"hot_touch", {"group", "item", "ts", "ingest", "trace"}}};
  }

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;
  void Tick(tstorm::OutputCollector& out) override;

 private:
  Combiner combiner_;
  std::set<std::pair<int64_t, int64_t>> touched_;  ///< (group, item)
  EventTime latest_ts_ = 0;
};

/// Maintains each demographic group's hot-items top-K blob (grouped by
/// group id).
class HotListBolt : public StoreBolt {
 public:
  explicit HotListBolt(const AppContext* app) : StoreBolt(app) {}

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;

 private:
  EventTime latest_ts_ = 0;
};

/// Situational CTR statistics (grouped by item): counts impressions and
/// clicks per situation level per window session, combiner-buffered.
class CtrStatsBolt : public StoreBolt {
 public:
  explicit CtrStatsBolt(const AppContext* app) : StoreBolt(app) {}

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;
  void Tick(tstorm::OutputCollector& out) override;

 private:
  Combiner combiner_;
};

/// CB statistics (grouped by user): folds actions into the user's decayed
/// tag profile blob using the item tag vectors registered in TDStore.
class CbProfileBolt : public StoreBolt {
 public:
  explicit CbProfileBolt(const AppContext* app) : StoreBolt(app) {}

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;

 private:
  double decay_lambda_ = 0.0;

  void Prepare(const tstorm::TaskContext& ctx) override;
};

/// Storage layer (Fig. 6): grouped by user, tracks users with fresh
/// activity and on each tick recomputes their recommendations from TDStore
/// state, applies the application's filter rules, and materializes the
/// result blob — so that "whenever an event occurs, it costs less than one
/// second for TencentRec to ... update the recommendation results".
class ResultStorageBolt : public StoreBolt {
 public:
  explicit ResultStorageBolt(const AppContext* app) : StoreBolt(app) {}

  void Execute(const tstorm::Tuple& input, const tstorm::TupleSource& source,
               tstorm::OutputCollector& out) override;
  void Tick(tstorm::OutputCollector& out) override;

  int64_t results_written() const { return results_written_; }

 private:
  struct TouchedUser {
    core::Demographics demographics;
    EventTime ts = 0;
    /// Oldest unserved ingest stamp — the pessimistic bound on how long
    /// this user's freshest recommendation has been pending.
    uint64_t ingest_micros = 0;
    /// First sampled trace among the pending actions; the Tick-time
    /// recommend+write span is attributed to it.
    uint64_t trace_id = 0;
  };
  std::unordered_map<int64_t, TouchedUser> pending_;
  /// Newest ingest stamp across all pending users; the instance watermark
  /// once a fully successful Tick has refreshed every touched user.
  uint64_t pending_max_ingest_ = 0;
  int64_t results_written_ = 0;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_BOLTS_H_
