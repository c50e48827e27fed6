// Video site (the Tencent Videos use case): the config-driven deployment
// path — the topology is generated from an XML file exactly as in the
// paper's Figure 7, run on the stream engine, and queried from TDStore.
// Also crashes a bolt mid-stream to demonstrate that stateless bolts +
// durable TDStore state survive worker failures.
//
//   ./video_site

#include <cstdio>

#include "topo/query.h"
#include "topo/spouts.h"
#include "topo/topology_factory.h"
#include "tstorm/cluster.h"
#include "tstorm/config.h"

using namespace tencentrec;
using namespace tencentrec::core;

namespace {

// The application's topology configuration — what a TencentRec operator
// writes instead of deployment code (§5.1, Fig. 7).
constexpr const char* kTopologyXml = R"(
<topology name="videos">
  <spout name="spout" class="VideoActionSpout"/>
  <bolts>
    <bolt name="pretreatment" class="Pretreatment" parallelism="2">
      <grouping type="field">
        <source>spout</source>
        <fields>user</fields>
      </grouping>
    </bolt>
    <bolt name="user_history" class="UserHistory" parallelism="2">
      <grouping type="field">
        <source>pretreatment</source>
        <stream_id>user_action</stream_id>
        <fields>user</fields>
      </grouping>
    </bolt>
    <bolt name="item_count" class="ItemCount" parallelism="2">
      <tick_interval>64</tick_interval>
      <grouping type="field">
        <source>user_history</source>
        <stream_id>item_delta</stream_id>
        <fields>item</fields>
      </grouping>
    </bolt>
    <bolt name="cf_pair" class="CfPair" parallelism="2">
      <grouping type="field">
        <source>user_history</source>
        <stream_id>pair_delta</stream_id>
        <fields>lo, hi</fields>
      </grouping>
    </bolt>
    <bolt name="similar_list" class="SimilarList" parallelism="2">
      <grouping type="field">
        <source>cf_pair</source>
        <stream_id>sim_update</stream_id>
        <fields>item</fields>
      </grouping>
      <grouping type="field">
        <source>cf_pair</source>
        <stream_id>prune</stream_id>
        <fields>item</fields>
      </grouping>
    </bolt>
    <bolt name="group_count" class="GroupCount" parallelism="2">
      <tick_interval>64</tick_interval>
      <grouping type="field">
        <source>user_history</source>
        <stream_id>group_delta</stream_id>
        <fields>group, item</fields>
      </grouping>
    </bolt>
    <bolt name="hot_list" class="HotList" parallelism="2">
      <grouping type="field">
        <source>group_count</source>
        <stream_id>hot_touch</stream_id>
        <fields>group</fields>
      </grouping>
    </bolt>
  </bolts>
</topology>
)";

UserAction Watch(UserId user, ItemId video, EventTime ts) {
  UserAction a;
  a.user = user;
  a.item = video;
  a.action = ActionType::kRead;  // a completed view
  a.timestamp = ts;
  a.demographics.gender = (user % 2) == 0 ? Demographics::kMale
                                          : Demographics::kFemale;
  a.demographics.age_band = static_cast<uint8_t>(1 + user % 3);
  return a;
}

}  // namespace

int main() {
  // The shared substrate: one TDStore cluster holds all state.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 8;
  auto store = tdstore::Cluster::Create(store_options);
  if (!store.ok()) return 1;

  topo::AppOptions app_options;
  app_options.app = "videos";
  app_options.linked_time = Hours(6);
  app_options.session_length = Hours(6);
  app_options.window_sessions = 8;  // 2-day sliding window
  topo::AppContext app(store->get(), app_options);

  // Binge sessions: two comedy fans, two documentary fans, and one viewer
  // we will query.
  std::vector<UserAction> actions;
  EventTime t = 0;
  for (UserId u = 1; u <= 4; ++u) {
    actions.push_back(Watch(u, 301, t += Minutes(5)));  // comedy
    actions.push_back(Watch(u, 302, t += Minutes(5)));
    actions.push_back(Watch(u, 303, t += Minutes(5)));
  }
  for (UserId u = 5; u <= 8; ++u) {
    actions.push_back(Watch(u, 401, t += Minutes(5)));  // documentaries
    actions.push_back(Watch(u, 402, t += Minutes(5)));
  }
  actions.push_back(Watch(42, 301, t += Minutes(5)));

  // Generate the topology from XML: register the component classes, parse,
  // build, run.
  tstorm::ComponentRegistry registry;
  topo::RegisterComponents(
      &registry, &app, "VideoActionSpout", [&actions] {
        return std::make_unique<topo::VectorActionSpout>(&actions);
      });
  auto spec = tstorm::BuildTopologyFromXml(kTopologyXml, registry);
  if (!spec.ok()) {
    std::fprintf(stderr, "config: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  std::printf("built topology '%s' from XML: %zu components, %zu edges\n",
              spec->name.c_str(), spec->components.size(),
              spec->edges.size());

  auto cluster = tstorm::LocalCluster::Create(std::move(spec).value());
  if (!cluster.ok()) return 1;
  // Crash the user_history workers mid-stream: stateless bolts recover
  // from TDStore and the run completes correctly (§3.3/§5.1).
  (void)(*cluster)->RequestRestart("user_history");
  if (!(*cluster)->Run().ok()) return 1;
  for (const auto& m : (*cluster)->Metrics()) {
    if (m.restarts > 0) {
      std::printf("component '%s' survived %llu worker restarts\n",
                  m.component.c_str(),
                  static_cast<unsigned long long>(m.restarts));
    }
  }

  // Serve from TDStore state.
  topo::StoreQuery query(&app);
  const EventTime now = t + Minutes(10);
  auto recs = query.RecommendCf(42, 3, now);
  std::printf("\nviewer 42 watched video 301 ->");
  for (const auto& r : *recs) {
    std::printf("  video %lld (%.3f)", static_cast<long long>(r.item),
                r.score);
  }
  std::printf("   (the comedy binge set, not the documentaries)\n");

  auto sim = query.SimilarityFromCounts(301, 302, now);
  auto cross = query.SimilarityFromCounts(301, 401, now);
  std::printf("sim(301,302)=%.3f   sim(301,401)=%.3f\n", *sim, *cross);
  return 0;
}
