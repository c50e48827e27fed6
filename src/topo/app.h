#ifndef TENCENTREC_TOPO_APP_H_
#define TENCENTREC_TOPO_APP_H_

#include <functional>
#include <memory>
#include <string>

#include "core/action.h"
#include "tdstore/cluster.h"
#include "topo/keys.h"

namespace tencentrec::topo {

/// Which algorithm bolts an application's topology runs (§5.1: the
/// framework contains all required algorithms; each application's config
/// enables the ones it needs).
struct AlgorithmSet {
  bool item_cf = true;
  bool demographic = true;  ///< DB complement; "used by all applications"
  bool content_based = false;
  bool assoc_rules = false;
  bool ctr = false;
};

/// Application-specific item filter for the storage layer's FilterBolt
/// ("the recommended items should be of one specific category or of price
/// within a certain range"). Returns true to keep the item.
using ItemFilter = std::function<bool(core::ItemId)>;

/// Per-application tuning shared by the topology bolts and the query path.
struct AppOptions {
  std::string app = "app";
  AlgorithmSet algorithms;
  core::ActionWeights weights;

  // --- item CF (§4.1) ---
  EventTime linked_time = Hours(6);
  int top_k = 20;
  int recent_k = 10;
  EventTime session_length = Hours(1);
  int window_sessions = 0;  ///< 0 = cumulative counts
  bool enable_pruning = false;
  double hoeffding_delta = 0.05;

  // --- DB ---
  int hot_list_size = 50;

  // --- CB ---
  EventTime profile_half_life = Hours(12);

  // --- CTR ---
  double ctr_prior_strength = 20.0;
  double ctr_base = 0.02;

  // --- implementation mechanisms (§5.2–5.3) ---
  /// Clean entries each bolt's write-behind StoreCache keeps (LRU); staged
  /// puts are held until they ship whatever this is. 0 keeps nothing once
  /// it has shipped.
  size_t cache_capacity = 1 << 14;
  /// Tick interval (executed tuples) at which combiners flush; 1 ships
  /// every counter delta as its own write.
  int combiner_interval = 64;

  // --- batched query tier (read-side mirror of the write batching) ---
  // StoreQuery plans each query's full key set, dedupes repeated keys, and
  // issues grouped MultiGets through a QueryCache (short-TTL positive +
  // negative entries, single-flight coalescing of concurrent identical
  // reads).
  /// QueryCache entry bound (key-value read results). 0 disables caching
  /// while keeping per-query dedupe and cross-thread coalescing.
  size_t query_cache_capacity = 1 << 14;
  /// Positive/negative entry lifetime. Short by design: the cache only has
  /// to absorb read bursts (§5.2), the store stays authoritative. 0
  /// disables result caching (dedupe + coalescing remain).
  int64_t query_cache_ttl_micros = 250'000;

  // --- topology shape ---
  int parallelism = 2;  ///< instances for the keyed bolts

  ItemFilter result_filter;  ///< nullptr = keep everything
};

/// Everything a bolt factory needs to wire an instance: the TDStore cluster
/// holding all state, the key schema, and the app options. Owned by the
/// engine; outlives every topology run.
struct AppContext {
  tdstore::Cluster* store = nullptr;
  AppOptions options;
  Keys keys{"app"};

  AppContext(tdstore::Cluster* store_cluster, AppOptions opts)
      : store(store_cluster), options(std::move(opts)), keys(options.app) {}

  /// Session containing `ts`; cumulative mode (window_sessions == 0) pools
  /// everything into pseudo-session 0.
  int64_t SessionOf(EventTime ts) const {
    if (options.window_sessions <= 0) return 0;
    const EventTime len =
        options.session_length < 1 ? 1 : options.session_length;
    return ts / len;
  }

  /// First live session of the window ending at the session of `now`.
  int64_t WindowStart(EventTime now) const {
    if (options.window_sessions <= 0) return 0;
    return SessionOf(now) - options.window_sessions + 1;
  }
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_APP_H_
