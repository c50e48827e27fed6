#include "topo/bolts.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/topk.h"
#include "core/ctr.h"
#include "core/itemcf/layers.h"
#include "core/itemcf/window_counts.h"
#include "core/rating.h"
#include "topo/blob_codec.h"
#include "topo/query.h"
#include "topo/window_plan.h"

namespace tencentrec::topo {

namespace {

/// `key`'s scored list, read through `cache` into a top-K table of capacity
/// `k`. An absent or undecodable blob reads as an empty list.
Result<TopK<core::ItemId>> LoadScoredList(StoreCache* cache,
                                          const std::string& key, size_t k) {
  auto blob = cache->Get(key);
  if (blob.ok()) {
    auto decoded = DecodeScoredList(*blob, k);
    if (decoded.ok()) return decoded;
  } else if (!blob.status().IsNotFound()) {
    return blob.status();
  }
  return TopK<core::ItemId>(k);
}

/// TopK::Update, reporting whether the list changed: a re-touch at the
/// entry's current score changes nothing, and neither does a newcomer that
/// a full list rejects.
bool UpdateChanges(TopK<core::ItemId>* list, core::ItemId id, double score) {
  for (size_t r = 0; r < list->size(); ++r) {
    if (list->id_at(r) == id) {
      if (list->score_at(r) == score) return false;
      break;
    }
  }
  return list->Update(id, score);
}

}  // namespace

void StoreBolt::Prepare(const tstorm::TaskContext& ctx) {
  ctx_ = ctx;
  client_ = std::make_unique<tdstore::Client>(app_->store);
  // Write-behind: every cache write stages in the cache instead of issuing
  // a point store op per key. Cleanup() ships whatever the auto-flush
  // threshold left staged.
  cache_ = std::make_unique<StoreCache>(client_.get(),
                                        app_->options.cache_capacity);
  // Resolve the event-to-store histogram once; a null pointer makes every
  // RecordEventToStore a branch-and-return with no clock read.
  e2s_ = MetricsEnabled()
             ? MetricRegistry::Default().GetHistogram(
                   "topo." + app_->options.app + "." + ctx.component_name +
                   ".event_to_store_us")
             : nullptr;
  span_name_ = ctx.component_name;
  flush_span_name_ = ctx.component_name + ".flush";
  freshness_ = obs::FreshnessTracker::Default().RegisterSlot(
      ctx.component_name.empty() ? "bolt" : ctx.component_name);
}

void StoreBolt::Cleanup() {
  (void)cache_->Flush();  // a failure lands in last_error()
  if (!cache_->last_error().ok()) {
    TR_LOG(kError, "%s: write-behind flush failed: %s", span_name_.c_str(),
           cache_->last_error().ToString().c_str());
    cache_->ClearError();
  }
}

Status StoreBolt::FlushCombiner(Combiner* combiner) {
  const Combiner::Stamps stamps = combiner->stamps();
  ScopedSpan span(stamps.first_trace, flush_span_name_);
  std::vector<std::pair<std::string, double>> deltas;
  combiner->Drain(&deltas);
  Status first_error;
  if (!deltas.empty()) {
    std::vector<Result<double>> results;
    const Status overall = client_->MultiIncrDouble(deltas, &results);
    for (size_t i = 0; i < deltas.size(); ++i) {
      const Status& s = overall.ok() ? results[i].status() : overall;
      if (s.ok()) continue;
      if (first_error.ok()) first_error = s;
      // Re-merged with whatever arrived meanwhile; the next flush retries.
      combiner->Add(std::move(deltas[i].first), deltas[i].second);
    }
  }
  if (!first_error.ok()) {
    TR_LOG(kError, "%s: combiner flush failed: %s", span_name_.c_str(),
           first_error.ToString().c_str());
    return first_error;
  }
  RecordEventToStore(stamps.oldest_ingest, stamps.first_trace);
  AdvanceFreshness(stamps.newest_ingest);
  combiner->ClearStamps();
  return Status::OK();
}

Result<double> StoreBolt::WindowSum(
    const std::function<std::string(int64_t session)>& key_of, EventTime now) {
  WindowPlan plan(app_, now);
  const WindowPlan::Range range = plan.Add(key_of);
  std::vector<Result<std::string>> vals;
  vals.reserve(plan.keys.size());
  for (const std::string& key : plan.keys) vals.push_back(cache_->Get(key));
  return WindowPlan::SumOf(vals, range);
}

// --- PretreatmentBolt -------------------------------------------------------

Counter* RejectedActionsCounter(const AppContext& app) {
  return MetricRegistry::Default().GetCounter("topo." + app.options.app +
                                              ".rejected_actions");
}

void PretreatmentBolt::Prepare(const tstorm::TaskContext& ctx) {
  StoreBolt::Prepare(ctx);
  rejected_ = RejectedActionsCounter(*app_);
}

void PretreatmentBolt::Execute(const tstorm::Tuple& input,
                               const tstorm::TupleSource& source,
                               tstorm::OutputCollector& out) {
  (void)source;
  auto action = ActionFromTuple(input);
  if (!action.ok() || !core::HasValidIds(*action)) {
    rejected_->Add();
    return;
  }
  ScopedSpan span(action->trace_id, span_name_);
  out.Emit(ActionToTuple(*action));
  // Pass-through stage: forwarding IS full processing here.
  AdvanceFreshness(action->ingest_micros);
}

// --- UserHistoryBolt --------------------------------------------------------

void UserHistoryBolt::Execute(const tstorm::Tuple& input,
                              const tstorm::TupleSource& source,
                              tstorm::OutputCollector& out) {
  (void)source;
  auto action = ActionFromTuple(input);
  if (!action.ok()) return;
  const auto ingest = static_cast<int64_t>(action->ingest_micros);
  const auto trace = static_cast<int64_t>(action->trace_id);
  ScopedSpan span(action->trace_id, span_name_);

  // Demographic path (multi-hash stage 1 -> 2 handoff): popularity weight
  // per action, routed by (group, item).
  if (options().algorithms.demographic) {
    const double w = options().weights.Weight(action->action);
    if (w > 0.0) {
      const auto group =
          static_cast<int64_t>(core::DemographicGroup(action->demographics));
      out.EmitTo(2, tstorm::Tuple::Of({group, action->item, w,
                                       action->timestamp, ingest, trace}));
      if (group != 0) {
        out.EmitTo(2, tstorm::Tuple::Of({static_cast<int64_t>(0),
                                         action->item, w,
                                         action->timestamp, ingest, trace}));
      }
    }
  }

  if (!options().algorithms.item_cf) return;

  // Load + update the user's history blob.
  const std::string key = keys().UserHistory(action->user);
  core::UserHistory history;
  auto blob = cache_->Get(key);
  if (blob.ok()) {
    auto decoded = DecodeUserHistory(*blob);
    if (decoded.ok()) {
      history = std::move(decoded).value();
    } else {
      TR_LOG(kWarning, "corrupt user history for %lld; resetting",
             static_cast<long long>(action->user));
    }
  } else if (!blob.status().IsNotFound()) {
    TR_LOG(kError, "user history read failed: %s",
           blob.status().ToString().c_str());
    return;
  }

  core::RatingUpdate update =
      history.Apply(*action, options().weights, options().linked_time);
  cache_->Put(key, EncodeUserHistory(history));
  RecordEventToStore(action->ingest_micros, action->trace_id);

  if (update.rating_delta > 0.0) {
    out.EmitTo(0, tstorm::Tuple::Of({update.item, update.rating_delta,
                                     action->timestamp, ingest, trace}));
  }
  for (const auto& pair : update.pairs) {
    const core::ItemId lo = std::min(update.item, pair.other);
    const core::ItemId hi = std::max(update.item, pair.other);
    out.EmitTo(1, tstorm::Tuple::Of({lo, hi, pair.co_rating_delta,
                                     action->timestamp, ingest, trace}));
  }
}

// --- ItemCountBolt ----------------------------------------------------------

void ItemCountBolt::Execute(const tstorm::Tuple& input,
                            const tstorm::TupleSource& source,
                            tstorm::OutputCollector& out) {
  (void)source;
  const core::ItemId item = input.GetInt(0);
  const double delta = input.GetDouble(1);
  const EventTime ts = input.GetInt(2);
  const auto ingest = static_cast<uint64_t>(input.GetInt(3));
  const auto trace = static_cast<uint64_t>(input.GetInt(4));
  ScopedSpan span(trace, span_name_);
  combiner_.Add(keys().ItemCount(app_->SessionOf(ts), item), delta);
  combiner_.Stamp(ingest, trace);
  (void)out;
}

void ItemCountBolt::Tick(tstorm::OutputCollector& out) {
  (void)out;
  (void)FlushCombiner(&combiner_);
}

// --- CfPairBolt -------------------------------------------------------------

void CfPairBolt::Prepare(const tstorm::TaskContext& ctx) {
  StoreBolt::Prepare(ctx);
  hoeffding_ln_inv_delta_ =
      core::HoeffdingLnInvDelta(options().hoeffding_delta);
}

void CfPairBolt::Execute(const tstorm::Tuple& input,
                         const tstorm::TupleSource& source,
                         tstorm::OutputCollector& out) {
  (void)source;
  const core::ItemId lo = input.GetInt(0);
  const core::ItemId hi = input.GetInt(1);
  const double co_delta = input.GetDouble(2);
  const EventTime ts = input.GetInt(3);
  const int64_t ingest = input.GetInt(4);
  const int64_t trace = input.GetInt(5);
  ScopedSpan span(static_cast<uint64_t>(trace), span_name_);

  // Algorithm 1, line 3–5: pruned pairs are skipped outright. The flag is
  // monotone (never unset), so caching it is safe.
  if (options().enable_pruning) {
    auto flag = cache_->Get(keys().Pruned(lo, hi));
    if (flag.ok()) {
      ++pruned_skips_;
      // Skipping a pruned pair completes the tuple.
      AdvanceFreshness(static_cast<uint64_t>(ingest));
      return;
    }
    if (!flag.status().IsNotFound()) {
      TR_LOG(kError, "prune flag read failed: %s",
             flag.status().ToString().c_str());
      return;
    }
  }

  // pairCount update (Eq. 8) in this event's session bucket.
  const int64_t session = app_->SessionOf(ts);
  auto pc = cache_->AddDouble(keys().PairCount(session, lo, hi), co_delta);
  if (!pc.ok()) {
    TR_LOG(kError, "pairCount update failed: %s",
           pc.status().ToString().c_str());
    return;
  }
  ++pair_updates_;
  RecordEventToStore(static_cast<uint64_t>(ingest),
                     static_cast<uint64_t>(trace));

  // Read the windowed sums and combine into the new similarity (Eq. 5/10).
  // itemCounts are maintained by ItemCountBolt; the statistics/computation
  // decoupling of §5.1 means we may read a slightly stale subtotal while
  // its combiner holds a delta — the next touch of this pair refreshes it.
  // pairCounts are this bolt's own keys (cacheable); itemCounts belong to
  // ItemCountBolt and must be read fresh: both items' sessions, and with
  // pruning both admission thresholds, in one grouped read — one store call
  // per distinct host instead of a point read per session per item.
  auto pc_sum =
      WindowSum([&](int64_t s) { return keys().PairCount(s, lo, hi); }, ts);
  WindowPlan plan(app_, ts);
  const auto lo_range =
      plan.Add([&](int64_t s) { return keys().ItemCount(s, lo); });
  const auto hi_range =
      plan.Add([&](int64_t s) { return keys().ItemCount(s, hi); });
  WindowPlan::Range t_lo_range;
  WindowPlan::Range t_hi_range;
  if (options().enable_pruning) {
    t_lo_range = plan.AddKey(keys().SimilarThreshold(lo));
    t_hi_range = plan.AddKey(keys().SimilarThreshold(hi));
  }
  std::vector<Result<std::string>> read;
  Result<double> ic_lo = 0.0;
  Result<double> ic_hi = 0.0;
  bool read_ok = pc_sum.ok() && client_->MultiGetBatch(plan.keys, &read).ok();
  if (read_ok) {
    ic_lo = WindowPlan::SumOf(read, lo_range);
    ic_hi = WindowPlan::SumOf(read, hi_range);
    read_ok = ic_lo.ok() && ic_hi.ok();
  }
  if (!read_ok) {
    TR_LOG(kError, "window sum read failed");
    return;
  }
  const double sim = core::ItemSimilarity(*pc_sum, *ic_lo, *ic_hi);
  // Over consistent cumulative counts pairCount <= either itemCount, so
  // Eq. 5 stays <= 1 and a score above 1 means the itemCounts lag their
  // combiner. Such a score would enter the similar list and raise its
  // admission threshold past 1, and pruning against that threshold would
  // drop correct pairs; neither sees it, and the pair's next touch
  // recomputes. A sliding window (Eq. 10) has no such bound: a co-rating
  // lands in the later action's session while the earlier item's rating
  // delta may sit in a session that has since expired, so the kernels
  // admit windowed scores above 1 and so does this bolt.
  if (options().window_sessions <= 0 && sim > 1.0) return;

  out.EmitTo(0, tstorm::Tuple::Of({lo, hi, sim, ingest, trace}));
  out.EmitTo(0, tstorm::Tuple::Of({hi, lo, sim, ingest, trace}));

  if (!options().enable_pruning) return;

  // Algorithm 1 lines 9–17. n_ij is a double, exact below 2^53.
  auto n = cache_->AddDouble(keys().PairObservations(lo, hi), 1.0);
  if (!n.ok()) return;
  // An absent threshold reads as 0: the list is not full yet.
  const Result<double> t_lo = WindowPlan::SumOf(read, t_lo_range);
  const Result<double> t_hi = WindowPlan::SumOf(read, t_hi_range);
  if (!t_lo.ok() || !t_hi.ok()) return;
  const double t = std::min(*t_lo, *t_hi);
  if (t <= 0.0) return;
  if (core::HoeffdingPrunes(hoeffding_ln_inv_delta_,
                            static_cast<int64_t>(*n), t, sim)) {
    cache_->Put(keys().Pruned(lo, hi), "1");
    ++prune_decisions_;
    out.EmitTo(1, tstorm::Tuple::Of({lo, hi}));
    out.EmitTo(1, tstorm::Tuple::Of({hi, lo}));
  }
}

// --- SimilarListBolt --------------------------------------------------------

void SimilarListBolt::Execute(const tstorm::Tuple& input,
                              const tstorm::TupleSource& source,
                              tstorm::OutputCollector& out) {
  (void)source;
  (void)out;
  const core::ItemId item = input.GetInt(0);
  const core::ItemId other = input.GetInt(1);
  const bool is_prune = input.size() == 2;  // "prune" stream has two fields
  ScopedSpan span(is_prune ? 0 : static_cast<uint64_t>(input.GetInt(4)),
                  span_name_);

  const std::string key = keys().SimilarItems(item);
  auto list =
      LoadScoredList(cache_.get(), key, static_cast<size_t>(options().top_k));
  if (!list.ok()) {
    TR_LOG(kError, "similar list read failed: %s",
           list.status().ToString().c_str());
    return;
  }
  const bool changed = is_prune
                           ? list->Erase(other)
                           : UpdateChanges(&*list, other, input.GetDouble(2));
  if (!changed) {
    // No-op upsert: the tuple is fully handled, just nothing to write.
    if (!is_prune) AdvanceFreshness(static_cast<uint64_t>(input.GetInt(3)));
    return;
  }

  cache_->Put(key, EncodeScoredList(*list));
  if (!is_prune) {
    RecordEventToStore(static_cast<uint64_t>(input.GetInt(3)),
                       static_cast<uint64_t>(input.GetInt(4)));
  }
  // Publish the admission threshold for the pruning stage: the K-th best
  // score once the list is full, else 0 (everything admissible).
  cache_->Put(keys().SimilarThreshold(item),
              tdstore::EncodeDouble(list->Threshold()));
}

// --- GroupCountBolt ---------------------------------------------------------

void GroupCountBolt::Execute(const tstorm::Tuple& input,
                             const tstorm::TupleSource& source,
                             tstorm::OutputCollector& out) {
  (void)source;
  const int64_t group = input.GetInt(0);
  const core::ItemId item = input.GetInt(1);
  const double delta = input.GetDouble(2);
  const EventTime ts = input.GetInt(3);
  const int64_t ingest = input.GetInt(4);
  const int64_t trace = input.GetInt(5);
  ScopedSpan span(static_cast<uint64_t>(trace), span_name_);
  latest_ts_ = std::max(latest_ts_, ts);

  combiner_.Add(keys().GroupHot(static_cast<core::GroupId>(group),
                                 app_->SessionOf(ts), item),
                delta);
  combiner_.Stamp(static_cast<uint64_t>(ingest), static_cast<uint64_t>(trace));
  touched_.insert({group, item});
  (void)out;
}

void GroupCountBolt::Tick(tstorm::OutputCollector& out) {
  const Combiner::Stamps flushed = combiner_.stamps();
  if (!FlushCombiner(&combiner_).ok()) return;
  // Forward the flushed batch's watermark downstream: everything buffered up
  // to its newest stamp is now landed, so the hot-list stage may advance
  // that far once it re-derives the touched groups.
  for (const auto& [group, item] : touched_) {
    out.Emit(tstorm::Tuple::Of(
        {group, item, latest_ts_, static_cast<int64_t>(flushed.newest_ingest),
         static_cast<int64_t>(flushed.first_trace)}));
  }
  touched_.clear();
}

// --- HotListBolt ------------------------------------------------------------

void HotListBolt::Execute(const tstorm::Tuple& input,
                          const tstorm::TupleSource& source,
                          tstorm::OutputCollector& out) {
  (void)source;
  (void)out;
  const int64_t group = input.GetInt(0);
  const core::ItemId item = input.GetInt(1);
  ScopedSpan span(static_cast<uint64_t>(input.GetInt(4)), span_name_);
  latest_ts_ = std::max(latest_ts_, input.GetInt(2));

  // Windowed popularity of the touched item (window end = the latest event
  // time this bolt has seen), then upsert into the group's hot list blob.
  // Group counters are written by GroupCountBolt — never cache them here:
  // the window's sessions come in one grouped read, one store call per host.
  WindowPlan plan(app_, latest_ts_);
  const auto range = plan.Add([&](int64_t s) {
    return keys().GroupHot(static_cast<core::GroupId>(group), s, item);
  });
  std::vector<Result<std::string>> read;
  if (!client_->MultiGetBatch(plan.keys, &read).ok()) return;
  const Result<double> pop = WindowPlan::SumOf(read, range);
  if (!pop.ok()) return;

  const std::string key = keys().HotList(static_cast<core::GroupId>(group));
  auto list = LoadScoredList(cache_.get(), key,
                             static_cast<size_t>(options().hot_list_size));
  if (!list.ok() || !UpdateChanges(&*list, item, *pop)) return;
  cache_->Put(key, EncodeScoredList(*list));
  RecordEventToStore(static_cast<uint64_t>(input.GetInt(3)),
                     static_cast<uint64_t>(input.GetInt(4)));
}

// --- CtrStatsBolt -----------------------------------------------------------

void CtrStatsBolt::Execute(const tstorm::Tuple& input,
                           const tstorm::TupleSource& source,
                           tstorm::OutputCollector& out) {
  (void)source;
  (void)out;
  auto action = ActionFromTuple(input);
  if (!action.ok()) return;
  const bool click = action->action == core::ActionType::kClick;
  if (!click && action->action != core::ActionType::kImpression) return;
  ScopedSpan span(action->trace_id, span_name_);

  const int64_t session = app_->SessionOf(action->timestamp);
  const int max_level = core::CtrMaxLevel(action->demographics);
  for (int level = 0; level <= max_level; ++level) {
    const uint64_t level_key =
        core::CtrLevelKey(action->item, level, action->demographics);
    combiner_.Add(
        keys().CtrCounts(level_key, session) + (click ? ":c" : ":i"), 1.0);
  }
  combiner_.Stamp(action->ingest_micros, action->trace_id);
}

void CtrStatsBolt::Tick(tstorm::OutputCollector& out) {
  (void)out;
  (void)FlushCombiner(&combiner_);
}

// --- CbProfileBolt ----------------------------------------------------------

void CbProfileBolt::Prepare(const tstorm::TaskContext& ctx) {
  StoreBolt::Prepare(ctx);
  const EventTime hl =
      options().profile_half_life < 1 ? 1 : options().profile_half_life;
  decay_lambda_ = std::log(2.0) / static_cast<double>(hl);
}

void CbProfileBolt::Execute(const tstorm::Tuple& input,
                            const tstorm::TupleSource& source,
                            tstorm::OutputCollector& out) {
  (void)source;
  (void)out;
  auto action = ActionFromTuple(input);
  if (!action.ok()) return;
  const double w = options().weights.Weight(action->action);
  if (w <= 0.0) return;
  ScopedSpan span(action->trace_id, span_name_);

  auto tags_blob = cache_->Get(keys().ItemTags(action->item));
  if (!tags_blob.ok()) return;  // untagged item: nothing to learn
  auto tags = DecodeTagVector(*tags_blob);
  if (!tags.ok()) return;

  const std::string key = keys().ContentProfile(action->user);
  ContentProfileBlob profile;
  auto blob = cache_->Get(key);
  if (blob.ok()) {
    auto decoded = DecodeContentProfile(*blob);
    if (decoded.ok()) profile = std::move(decoded).value();
  } else if (!blob.status().IsNotFound()) {
    return;
  }

  // Decay to the action time, then fold the item's tags in.
  if (action->timestamp > profile.last_update && !profile.weights.empty()) {
    const double factor = std::exp(
        -decay_lambda_ *
        static_cast<double>(action->timestamp - profile.last_update));
    for (auto& [tag, weight] : profile.weights) weight *= factor;
    std::erase_if(profile.weights,
                  [](const auto& p) { return p.second < 1e-9; });
  }
  profile.last_update = std::max(profile.last_update, action->timestamp);
  for (const auto& [tag, tw] : *tags) {
    bool found = false;
    for (auto& [pt, pw] : profile.weights) {
      if (pt == tag) {
        pw += w * tw;
        found = true;
        break;
      }
    }
    if (!found) profile.weights.emplace_back(tag, w * tw);
  }

  cache_->Put(key, EncodeContentProfile(profile));
  RecordEventToStore(action->ingest_micros, action->trace_id);
}

// --- ResultStorageBolt ------------------------------------------------------

void ResultStorageBolt::Execute(const tstorm::Tuple& input,
                                const tstorm::TupleSource& source,
                                tstorm::OutputCollector& out) {
  (void)source;
  (void)out;
  auto action = ActionFromTuple(input);
  if (!action.ok()) return;
  ScopedSpan span(action->trace_id, span_name_);
  TouchedUser& t = pending_[action->user];
  t.demographics = action->demographics;
  t.ts = std::max(t.ts, action->timestamp);
  if (t.ingest_micros == 0 ||
      (action->ingest_micros != 0 && action->ingest_micros < t.ingest_micros)) {
    t.ingest_micros = action->ingest_micros;
  }
  if (t.trace_id == 0) t.trace_id = action->trace_id;
  pending_max_ingest_ = std::max(pending_max_ingest_, action->ingest_micros);
}

void ResultStorageBolt::Tick(tstorm::OutputCollector& out) {
  (void)out;
  if (pending_.empty()) return;
  StoreQuery query(app_);
  size_t failures = 0;
  for (const auto& [user, touched] : pending_) {
    ScopedSpan span(touched.trace_id, flush_span_name_);
    auto recs = query.Recommend(user, touched.demographics,
                                static_cast<size_t>(options().top_k),
                                touched.ts);
    if (!recs.ok()) {
      ++failures;
      continue;
    }
    cache_->Put(keys().Results(user), EncodeScoredList(*recs));
    ++results_written_;
    // Event -> final recommendation blob: the paper's headline freshness
    // number, measured from the oldest action folded into this refresh.
    RecordEventToStore(touched.ingest_micros, touched.trace_id);
  }
  // Every pending action has been served only if no refresh failed; a
  // partial tick keeps the watermark where the per-user records put it.
  if (failures == 0) AdvanceFreshness(pending_max_ingest_);
  pending_max_ingest_ = 0;
  pending_.clear();
}

}  // namespace tencentrec::topo
