#include "topo/topology_factory.h"
#include <cmath>

#include "topo/bolts.h"

namespace tencentrec::topo {

int SuggestParallelism(double events_per_second, double per_event_cost_us,
                       double target_utilization, int min_parallelism,
                       int max_parallelism) {
  if (events_per_second <= 0.0 || per_event_cost_us <= 0.0) {
    return min_parallelism;
  }
  if (target_utilization <= 0.0 || target_utilization > 1.0) {
    target_utilization = 0.6;
  }
  const double busy_fraction = events_per_second * per_event_cost_us / 1e6;
  int suggested =
      static_cast<int>(std::ceil(busy_fraction / target_utilization));
  if (suggested < min_parallelism) suggested = min_parallelism;
  if (suggested > max_parallelism) suggested = max_parallelism;
  return suggested;
}

Result<tstorm::TopologySpec> BuildAppTopology(const AppContext* app,
                                              tstorm::SpoutFactory spout,
                                              bool materialize_results,
                                              int spout_parallelism) {
  const AppOptions& opts = app->options;
  const int p = opts.parallelism < 1 ? 1 : opts.parallelism;
  const int tick = opts.combiner_interval < 1 ? 64 : opts.combiner_interval;

  tstorm::TopologyBuilder builder(opts.app);
  builder.SetSpout("spout", std::move(spout),
                   spout_parallelism < 1 ? 1 : spout_parallelism);

  // Grouped by user, like the next hop: a shuffle here could swap two of
  // one user's actions between instances, and a rating delta would then
  // land in the wrong session downstream.
  builder
      .SetBolt("pretreatment",
               [app] { return std::make_unique<PretreatmentBolt>(app); }, p)
      .FieldsGrouping("spout", {"user"});

  builder
      .SetBolt("user_history",
               [app] { return std::make_unique<UserHistoryBolt>(app); }, p)
      .FieldsGrouping("pretreatment", {"user"});

  if (opts.algorithms.item_cf) {
    builder
        .SetBolt("item_count",
                 [app] { return std::make_unique<ItemCountBolt>(app); }, p)
        .FieldsGrouping("user_history", {"item"}, "item_delta")
        .TickInterval(tick);
    builder
        .SetBolt("cf_pair",
                 [app] { return std::make_unique<CfPairBolt>(app); }, p)
        .FieldsGrouping("user_history", {"lo", "hi"}, "pair_delta");
    builder
        .SetBolt("similar_list",
                 [app] { return std::make_unique<SimilarListBolt>(app); }, p)
        .FieldsGrouping("cf_pair", {"item"}, "sim_update")
        .FieldsGrouping("cf_pair", {"item"}, "prune");
  }

  if (opts.algorithms.demographic) {
    builder
        .SetBolt("group_count",
                 [app] { return std::make_unique<GroupCountBolt>(app); }, p)
        .FieldsGrouping("user_history", {"group", "item"}, "group_delta")
        .TickInterval(tick);
    builder
        .SetBolt("hot_list",
                 [app] { return std::make_unique<HotListBolt>(app); }, p)
        .FieldsGrouping("group_count", {"group"}, "hot_touch");
  }

  if (opts.algorithms.ctr) {
    builder
        .SetBolt("ctr_stats",
                 [app] { return std::make_unique<CtrStatsBolt>(app); }, p)
        .FieldsGrouping("pretreatment", {"item"}, "user_action")
        .TickInterval(tick);
  }

  if (opts.algorithms.content_based) {
    builder
        .SetBolt("cb_profile",
                 [app] { return std::make_unique<CbProfileBolt>(app); }, p)
        .FieldsGrouping("pretreatment", {"user"}, "user_action");
  }

  if (materialize_results) {
    builder
        .SetBolt("result_storage",
                 [app] { return std::make_unique<ResultStorageBolt>(app); },
                 p)
        .FieldsGrouping("pretreatment", {"user"}, "user_action")
        .TickInterval(tick);
  }

  return std::move(builder).Build();
}

void RegisterComponents(tstorm::ComponentRegistry* registry,
                        const AppContext* app, const std::string& spout_class,
                        tstorm::SpoutFactory spout) {
  registry->RegisterSpout(spout_class, std::move(spout));
  registry->RegisterBolt("Pretreatment", [app] {
    return std::make_unique<PretreatmentBolt>(app);
  });
  registry->RegisterBolt("UserHistory", [app] {
    return std::make_unique<UserHistoryBolt>(app);
  });
  registry->RegisterBolt("ItemCount", [app] {
    return std::make_unique<ItemCountBolt>(app);
  });
  registry->RegisterBolt("CfPair", [app] {
    return std::make_unique<CfPairBolt>(app);
  });
  registry->RegisterBolt("SimilarList", [app] {
    return std::make_unique<SimilarListBolt>(app);
  });
  registry->RegisterBolt("GroupCount", [app] {
    return std::make_unique<GroupCountBolt>(app);
  });
  registry->RegisterBolt("HotList", [app] {
    return std::make_unique<HotListBolt>(app);
  });
  registry->RegisterBolt("CtrStats", [app] {
    return std::make_unique<CtrStatsBolt>(app);
  });
  registry->RegisterBolt("CbProfile", [app] {
    return std::make_unique<CbProfileBolt>(app);
  });
  registry->RegisterBolt("ResultStorage", [app] {
    return std::make_unique<ResultStorageBolt>(app);
  });
}

}  // namespace tencentrec::topo
