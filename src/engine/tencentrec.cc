#include "engine/tencentrec.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/profiled_mutex.h"
#include "common/trace.h"
#include "engine/monitor.h"
#include "obs/freshness.h"
#include "obs/profiler.h"
#include "topo/action_codec.h"
#include "topo/blob_codec.h"
#include "topo/bolts.h"
#include "topo/spouts.h"
#include "topo/topology_factory.h"

namespace tencentrec::engine {

TencentRec::TencentRec(Options options) : options_(std::move(options)) {}

// Out of line: ~StallWatchdog needs the complete type from engine/monitor.h,
// which this header cannot include (monitor.h includes tencentrec.h).
TencentRec::~TencentRec() {
  // Only stop the profiler if this engine's Init started it — a sibling
  // engine (or a test harness) that owns the profiler keeps it.
  if (profiler_started_) obs::Profiler::Instance().Stop();
  if (watchdog_ != nullptr) watchdog_->Stop();
  if (admin_ != nullptr) admin_->Stop();
  // Stop the sampler before slo_ dies: its post-sample hook evaluates the
  // SLO registry from the sampler thread.
  if (timeseries_ != nullptr) timeseries_->Stop();
}

Result<std::unique_ptr<TencentRec>> TencentRec::Create(Options options) {
  std::unique_ptr<TencentRec> engine(new TencentRec(std::move(options)));
  Status s = engine->Init();
  if (!s.ok()) return s;
  return engine;
}

Status TencentRec::Init() {
  auto store = tdstore::Cluster::Create(options_.store);
  if (!store.ok()) return store.status();
  store_ = std::move(store).value();
  barrier_seq_ = store_->recovered_barrier_id();

  access_ = std::make_unique<tdaccess::Cluster>(options_.access);
  TR_RETURN_IF_ERROR(
      access_->master().CreateTopic(options_.topic, options_.topic_partitions));
  producer_ = std::make_unique<tdaccess::Producer>(access_.get(),
                                                   options_.topic);

  app_ = std::make_unique<topo::AppContext>(store_.get(), options_.app);
  admin_client_ = std::make_unique<tdstore::Client>(store_.get());
  // One shared cache for every StoreQuery (the engine's own and any
  // per-thread ones callers build from query_cache()): sharing is what
  // turns N concurrent identical reads into one store round-trip.
  query_cache_ = topo::MakeQueryCache(options_.app);
  query_ = std::make_unique<topo::StoreQuery>(app_.get(), query_cache_);

  if (options_.mirror_parallel_cf) {
    core::ParallelItemCf::Options popts;
    popts.cf.weights = options_.app.weights;
    popts.cf.linked_time = options_.app.linked_time;
    popts.cf.top_k = options_.app.top_k;
    popts.cf.recent_k = options_.app.recent_k;
    popts.cf.session_length = options_.app.session_length;
    popts.cf.window_sessions = options_.app.window_sessions;
    popts.cf.enable_pruning = options_.app.enable_pruning;
    popts.cf.hoeffding_delta = options_.app.hoeffding_delta;
    popts.user_shards = options_.mirror_user_shards;
    popts.pair_shards = options_.mirror_pair_shards;
    popts.metrics_scope = "parallel_cf." + options_.app.app;
    parallel_cf_ = std::make_unique<core::ParallelItemCf>(popts);
  }

  if (options_.trace_sample_every > 0) {
    SetTraceSampleEvery(options_.trace_sample_every);
  }

  if (options_.enable_watchdog) {
    StallWatchdog::Options wopts;
    wopts.period_ms = options_.watchdog_period_ms;
    wopts.health = &health_;
    watchdog_ = std::make_unique<StallWatchdog>(wopts);
    if (parallel_cf_ != nullptr) {
      core::ParallelItemCf* cf = parallel_cf_.get();
      watchdog_->Register({"parallel_cf.user-history",
                           [cf] { return cf->StageHeartbeat(false); },
                           [cf] { return cf->StageBacklog(false); }});
      watchdog_->Register({"parallel_cf.count+sim",
                           [cf] { return cf->StageHeartbeat(true); },
                           [cf] { return cf->StageBacklog(true); }});
    }
    watchdog_->Start();
  }

  if (options_.enable_timeseries || options_.enable_slo) {
    obs::TimeSeriesStore::Options topts;
    topts.sample_period_ms = options_.timeseries_sample_period_ms;
    topts.capacity = options_.timeseries_capacity;
    timeseries_ = std::make_unique<obs::TimeSeriesStore>(
        &MetricRegistry::Default(), topts);
    // Freshness lags and CPU shares are derived gauges: publish them at the
    // sample instant so every ring slot (and thus every SLO window) carries
    // them. The profiler publish is a no-op while no samples accrue.
    timeseries_->SetPreSampleHook([](uint64_t now) {
      obs::FreshnessTracker::Default().PublishGauges(&MetricRegistry::Default(),
                                                     now);
      obs::Profiler::Instance().PublishGauges();
    });
  }
  if (options_.enable_slo) {
    slo_ = std::make_unique<obs::SloRegistry>(timeseries_.get(), &health_);
    const uint64_t sw = options_.slo_short_window_micros;
    const uint64_t lw = options_.slo_long_window_micros;
    // Default objectives (DESIGN.md §12): latency, freshness, store error
    // budget, stall-freedom. Names key the health components ("slo.<name>").
    slo_->AddObjective({/*name=*/"e2s-p99",
                        obs::SloRegistry::Kind::kMaxValue,
                        /*metric=*/"topo." + options_.app.app +
                            ".*.event_to_store_us.p99",
                        /*denominator=*/"",
                        static_cast<double>(options_.slo_e2s_p99_micros), sw,
                        lw,
                        /*burn_factor=*/1.0, /*affects_readiness=*/false,
                        "interval p99 of event-to-store latency, worst bolt"});
    slo_->AddObjective({/*name=*/"freshness",
                        obs::SloRegistry::Kind::kMaxValue,
                        /*metric=*/"freshness.e2e.lag_us",
                        /*denominator=*/"",
                        static_cast<double>(options_.slo_freshness_lag_micros),
                        sw, lw,
                        /*burn_factor=*/1.0, /*affects_readiness=*/true,
                        "end-to-end watermark freshness lag"});
    slo_->AddObjective({/*name=*/"store-errors",
                        obs::SloRegistry::Kind::kMaxRatio,
                        /*metric=*/"tdstore.client.errors",
                        /*denominator=*/"tdstore.client.ops",
                        options_.slo_store_error_ratio, sw, lw,
                        /*burn_factor=*/1.0, /*affects_readiness=*/true,
                        "TDStore client op error budget"});
    slo_->AddObjective({/*name=*/"stall-free",
                        obs::SloRegistry::Kind::kMaxValue,
                        /*metric=*/"watchdog.stalled_components",
                        /*denominator=*/"",
                        /*threshold=*/0.5, sw, lw,
                        /*burn_factor=*/1.0, /*affects_readiness=*/true,
                        "no pipeline component stalled"});
    // Every fresh sample is judged immediately (sampler thread); tests call
    // SampleNow+EvaluateNow themselves for determinism.
    timeseries_->SetPostSampleHook(
        [this](uint64_t now) { slo_->EvaluateNow(now); });
  }
  if (timeseries_ != nullptr) timeseries_->Start();

  if (options_.enable_profiler) {
    obs::Profiler::Options popts;
    popts.hz = options_.profiler_hz;
    // May refuse (kill switch off, or another engine already profiling);
    // the /profile routes report the live state either way.
    profiler_started_ = obs::Profiler::Instance().Start(popts);
  }

  if (options_.enable_admin_server) {
    obs::AdminServer::Options aopts;
    aopts.bind_address = options_.admin_bind_address;
    aopts.port = options_.admin_port;
    admin_ = std::make_unique<obs::AdminServer>(aopts);
    // Handlers run on the accept thread; everything they touch is either
    // internally synchronized (registry, tracer, health) or a full
    // snapshot collection. Hitting /metrics mid-batch observes the
    // previous run's topology rows, which is the intended semantics.
    admin_->Route("/metrics", [this](const obs::AdminServer::Request&) {
      obs::AdminServer::Response resp;
      obs::FreshnessTracker::Default().PublishGauges(&MetricRegistry::Default(),
                                                     MonoMicros());
      auto snap = CollectMonitorSnapshot(this);
      if (!snap.ok()) {
        resp.status = 503;
        resp.body = snap.status().ToString() + "\n";
        return resp;
      }
      // The exposition carries exemplars and the # EOF trailer, so negotiate
      // OpenMetrics; classic Prometheus parsers accept the payload minus the
      // exemplar annotations.
      resp.content_type =
          "application/openmetrics-text; version=1.0.0; charset=utf-8";
      resp.body = ExportPrometheusText(*snap);
      return resp;
    });
    admin_->Route("/vars", [this](const obs::AdminServer::Request&) {
      obs::AdminServer::Response resp;
      // Freshness lags are computed at collection time so /vars always
      // carries current watermark gauges, sampler or not.
      obs::FreshnessTracker::Default().PublishGauges(&MetricRegistry::Default(),
                                                     MonoMicros());
      auto snap = CollectMonitorSnapshot(this);
      if (!snap.ok()) {
        resp.status = 503;
        resp.body = snap.status().ToString() + "\n";
        return resp;
      }
      resp.content_type = "application/json";
      resp.body = ExportJson(*snap);
      return resp;
    });
    admin_->Route("/healthz", [this](const obs::AdminServer::Request&) {
      obs::AdminServer::Response resp;
      resp.status = health_.Healthy() ? 200 : 503;
      resp.content_type = "application/json";
      resp.body = health_.Json();
      return resp;
    });
    admin_->Route("/readyz", [this](const obs::AdminServer::Request&) {
      obs::AdminServer::Response resp;
      const bool ready = health_.Ready();
      resp.status = ready ? 200 : 503;
      resp.content_type = "application/json";
      resp.body = ready ? "{\"ready\":true}" : "{\"ready\":false}";
      return resp;
    });
    admin_->Route("/timeseries", [this](const obs::AdminServer::Request& req) {
      obs::AdminServer::Response resp;
      resp.content_type = "application/json";
      if (timeseries_ == nullptr) {
        resp.status = 404;
        resp.body = "{\"error\":\"timeseries disabled\"}";
        return resp;
      }
      // ?metric=<series>&window=<seconds>; no metric lists series names.
      std::string metric;
      uint64_t window_micros = 0;
      size_t pos = req.query.find("metric=");
      if (pos != std::string::npos) {
        const size_t start = pos + 7;
        const size_t end = req.query.find('&', start);
        metric = req.query.substr(start, end == std::string::npos
                                             ? std::string::npos
                                             : end - start);
      }
      pos = req.query.find("window=");
      if (pos != std::string::npos) {
        window_micros = static_cast<uint64_t>(
                            std::strtoull(req.query.c_str() + pos + 7,
                                          nullptr, 10)) *
                        kMicrosPerSecond;
      }
      if (metric.empty()) {
        std::string body = "{\"series\":[";
        bool first = true;
        for (const auto& name : timeseries_->SeriesNames()) {
          if (!first) body += ',';
          first = false;
          body += '"' + name + '"';
        }
        body += "]}";
        resp.body = std::move(body);
        return resp;
      }
      resp.body = timeseries_->QueryJson(metric, window_micros);
      return resp;
    });
    admin_->Route("/slo", [this](const obs::AdminServer::Request&) {
      obs::AdminServer::Response resp;
      resp.content_type = "application/json";
      if (slo_ == nullptr) {
        resp.status = 404;
        resp.body = "{\"error\":\"slo disabled\"}";
        return resp;
      }
      resp.body = slo_->Json();
      return resp;
    });
    admin_->Route("/traces", [](const obs::AdminServer::Request& req) {
      obs::AdminServer::Response resp;
      resp.content_type = "application/json";
      const auto spans = Tracer::Default().Spans();
      // ?format=chrome emits the about:tracing / Perfetto event array.
      resp.body = req.query.find("format=chrome") != std::string::npos
                      ? ExportChromeTrace(spans)
                      : ExportTracesJson(spans);
      return resp;
    });
    // Profiling plane (DESIGN.md §13). /profile/cpu BLOCKS the accept
    // thread for the window (the plane is single-request by design), so
    // the other endpoints are unavailable while a profile is being taken;
    // seconds is clamped to 30.
    admin_->Route("/profile/cpu", [](const obs::AdminServer::Request& req) {
      obs::AdminServer::Response resp;
      obs::Profiler& prof = obs::Profiler::Instance();
      if (!prof.running()) {
        resp.status = 503;
        resp.content_type = "application/json";
        resp.body = "{\"error\":\"profiler not running\"}";
        return resp;
      }
      double seconds = 2.0;
      size_t pos = req.query.find("seconds=");
      if (pos != std::string::npos) {
        seconds = std::strtod(req.query.c_str() + pos + 8, nullptr);
      }
      if (!(seconds > 0.0)) seconds = 2.0;
      if (seconds > 30.0) seconds = 30.0;
      const bool json = req.query.find("format=json") != std::string::npos;
      const auto agg = prof.CollectWindow(seconds);
      if (json) {
        resp.content_type = "application/json";
        resp.body = obs::Profiler::Json(agg);
      } else {
        // Collapsed stacks: pipe straight into flamegraph.pl.
        resp.content_type = "text/plain";
        resp.body = obs::Profiler::Folded(agg);
      }
      return resp;
    });
    admin_->Route("/profile/contention",
                  [](const obs::AdminServer::Request&) {
                    obs::AdminServer::Response resp;
                    resp.content_type = "application/json";
                    resp.body = ContentionReportJson();
                    return resp;
                  });
    // Kill switch: GET reports state; ?set=0 stops and disables,
    // ?set=1 re-enables and restarts at the engine's configured rate.
    admin_->Route("/profile/enabled",
                  [this](const obs::AdminServer::Request& req) {
                    obs::AdminServer::Response resp;
                    resp.content_type = "application/json";
                    obs::Profiler& prof = obs::Profiler::Instance();
                    if (req.query.find("set=0") != std::string::npos) {
                      prof.SetEnabled(false);
                    } else if (req.query.find("set=1") !=
                               std::string::npos) {
                      prof.SetEnabled(true);
                      obs::Profiler::Options popts;
                      popts.hz = options_.profiler_hz;
                      profiler_started_ = prof.Start(popts);
                    }
                    char buf[96];
                    std::snprintf(buf, sizeof(buf),
                                  "{\"enabled\":%s,\"running\":%s,\"hz\":%d}",
                                  prof.Enabled() ? "true" : "false",
                                  prof.running() ? "true" : "false",
                                  prof.hz());
                    resp.body = buf;
                    return resp;
                  });
    TR_RETURN_IF_ERROR(admin_->Start());
  }

  health_.SetReady(true);
  return Status::OK();
}

Status TencentRec::RegisterItem(core::ItemId item,
                                const core::TagVector& tags) {
  TR_RETURN_IF_ERROR(admin_client_->Put(app_->keys.ItemTags(item),
                                        topo::EncodeTagVector(tags)));
  // Maintain the inverted index (single-threaded admin path; read-modify-
  // write is safe here).
  for (const auto& [tag, w] : tags) {
    const std::string key = app_->keys.TagIndex(tag);
    std::vector<core::ItemId> items;
    auto blob = admin_client_->Get(key);
    if (blob.ok()) {
      auto decoded = topo::DecodeItemList(*blob);
      if (!decoded.ok()) return decoded.status();
      items = std::move(decoded).value();
    } else if (!blob.status().IsNotFound()) {
      return blob.status();
    }
    bool present = false;
    for (core::ItemId existing : items) {
      if (existing == item) {
        present = true;
        break;
      }
    }
    if (!present) {
      items.push_back(item);
      TR_RETURN_IF_ERROR(admin_client_->Put(key, topo::EncodeItemList(items)));
    }
    query_cache_->Invalidate(key);
  }
  // This admin write bypasses the query tier, so evict exactly the keys it
  // rewrote — a cached NotFound for a just-registered item must not outlive
  // the registration.
  query_cache_->Invalidate(app_->keys.ItemTags(item));
  return Status::OK();
}

Status TencentRec::RunTopology(
    tstorm::SpoutFactory spout,
    const std::vector<std::string>& restart_components, int spout_parallelism) {
  auto spec = topo::BuildAppTopology(app_.get(), std::move(spout),
                                     options_.materialize_results,
                                     spout_parallelism);
  if (!spec.ok()) return spec.status();

  tstorm::LocalCluster::Options copts;
  copts.queue_capacity = options_.queue_capacity;
  auto cluster =
      tstorm::LocalCluster::Create(std::move(spec).value(), copts);
  if (!cluster.ok()) return cluster.status();

  // While this topology runs, expose each component to the watchdog: the
  // heartbeat advances per spout batch / bolt pop, the backlog is the input
  // queue depth. Sources are unregistered before the cluster is destroyed.
  std::vector<int64_t> watch_ids;
  if (watchdog_ != nullptr) {
    tstorm::LocalCluster* raw = cluster->get();
    for (const auto& row : raw->WatchRows()) {
      const std::string component = row.component;
      watch_ids.push_back(watchdog_->Register(
          {"topo." + component,
           [raw, component] {
             for (const auto& w : raw->WatchRows()) {
               if (w.component == component) return w.progress;
             }
             return uint64_t{0};
           },
           [raw, component] {
             for (const auto& w : raw->WatchRows()) {
               if (w.component == component) return w.backlog;
             }
             return uint64_t{0};
           }}));
    }
  }

  std::thread restarter;
  if (!restart_components.empty()) {
    // Let some tuples flow, then crash the requested bolts mid-stream.
    restarter = std::thread([&cluster, restart_components] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      for (const auto& component : restart_components) {
        Status s = (*cluster)->RequestRestart(component);
        if (!s.ok()) {
          TR_LOG(kWarning, "restart request failed: %s",
                 s.ToString().c_str());
        }
      }
    });
  }
  Status run = (*cluster)->Run();
  if (restarter.joinable()) restarter.join();
  for (int64_t id : watch_ids) watchdog_->Unregister(id);
  TR_RETURN_IF_ERROR(run);
  last_metrics_ = (*cluster)->Metrics();
  ++batches_run_;
  return Status::OK();
}

Status TencentRec::ProcessBatch(
    const std::vector<core::UserAction>& actions,
    const std::vector<std::string>& restart_components) {
  // The id contract (core::HasValidIds) is enforced once, here at the
  // input: the topology's PretreatmentBolt would drop such actions too, but
  // the mirror has no such stage and would abort on an id its packed tables
  // cannot hold. Valid batches are passed through without a copy.
  const std::vector<core::UserAction>* batch = &actions;
  std::vector<core::UserAction> valid;
  if (!std::all_of(actions.begin(), actions.end(), core::HasValidIds)) {
    std::copy_if(actions.begin(), actions.end(), std::back_inserter(valid),
                 core::HasValidIds);
    topo::RejectedActionsCounter(*app_)->Add(actions.size() - valid.size());
    batch = &valid;
  }
  if (options_.app.parallelism == 0 && !batch->empty()) {
    // Automatic parallelism (§7): size the keyed bolts from this batch's
    // event rate over its event-time span.
    const EventTime span = std::max<EventTime>(
        kMicrosPerSecond,
        batch->back().timestamp - batch->front().timestamp);
    const double events_per_second =
        static_cast<double>(batch->size()) /
        (static_cast<double>(span) / static_cast<double>(kMicrosPerSecond));
    app_->options.parallelism = topo::SuggestParallelism(
        events_per_second, options_.auto_parallelism_event_cost_us);
    TR_LOG(kInfo, "auto parallelism: %.0f events/s -> %d instances",
           events_per_second, app_->options.parallelism);
  }
  Status run = RunTopology(
      [batch] { return std::make_unique<topo::VectorActionSpout>(batch); },
      restart_components, /*spout_parallelism=*/1);
  if (run.ok() && parallel_cf_ != nullptr) {
    // Mirror the batch through the in-memory sharded pipeline and drain so
    // its query surface is immediately consistent with this batch.
    if (TracingEnabled()) {
      // The spout samples its own copies, so the mirror must make its own
      // edge decision for the shard-stage spans to fire.
      std::vector<core::UserAction> stamped = *batch;
      for (auto& a : stamped) {
        if (a.trace_id == 0) a.trace_id = MaybeStartTrace();
      }
      parallel_cf_->ProcessActions(stamped);
    } else {
      parallel_cf_->ProcessActions(*batch);
    }
    parallel_cf_->Drain();
  }
  if (run.ok()) {
    // Everything this batch's bolts wrote is now in the store (tstorm ran
    // every bolt's Cleanup, which flushes its write-behind cache), so the
    // whole batch commits as one barrier across every server's WAL.
    TR_RETURN_IF_ERROR(CommitStoreBarrier());
  }
  // Batch boundary: the topology just rewrote counters/lists the query tier
  // may have cached, so drop every entry. The TTL alone would converge too,
  // but tests (and operators) expect a finished batch to be visible on the
  // very next query.
  query_cache_->Clear();
  return run;
}

Status TencentRec::CommitStoreBarrier() {
  if (!store_->durable()) return Status::OK();
  TR_RETURN_IF_ERROR(store_->CommitBarrier(++barrier_seq_));
  if (options_.checkpoint_interval_batches > 0 &&
      batches_run_ % options_.checkpoint_interval_batches == 0) {
    TR_RETURN_IF_ERROR(store_->Checkpoint(barrier_seq_));
  }
  return Status::OK();
}

Status TencentRec::Checkpoint() { return store_->Checkpoint(barrier_seq_); }

Status TencentRec::PublishActions(
    const std::vector<core::UserAction>& actions) {
  for (const auto& action : actions) {
    // Stamp at the application boundary so the trace spans the full bus +
    // topology path, not just the spout onward.
    core::UserAction stamped = action;
    if (stamped.ingest_micros == 0 && MetricsEnabled()) {
      stamped.ingest_micros = MonoMicros();
    }
    // Sampling at publish (rather than at the spout) makes the trace span
    // the TDAccess hop too; the spout keeps any id already on the wire.
    if (stamped.trace_id == 0) stamped.trace_id = MaybeStartTrace();
    ScopedSpan span(stamped.trace_id, "publish");
    TR_RETURN_IF_ERROR(producer_->Send(std::to_string(stamped.user),
                                       topo::EncodeActionPayload(stamped),
                                       stamped.timestamp));
  }
  return Status::OK();
}

Status TencentRec::ProcessFromAccess() {
  tdaccess::Cluster* access = access_.get();
  const std::string topic = options_.topic;
  const std::string group = "tdprocess:" + options_.app.app;
  Status run = RunTopology(
      [access, topic, group] {
        return std::make_unique<topo::TdAccessActionSpout>(access, topic,
                                                           group);
      },
      {}, options_.spout_parallelism);
  if (run.ok()) TR_RETURN_IF_ERROR(CommitStoreBarrier());
  query_cache_->Clear();  // batch boundary
  return run;
}

}  // namespace tencentrec::engine
