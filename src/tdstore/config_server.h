#ifndef TENCENTREC_TDSTORE_CONFIG_SERVER_H_
#define TENCENTREC_TDSTORE_CONFIG_SERVER_H_

#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace tencentrec::tdstore {

/// Placement of one data instance (shard): which server hosts it and which
/// keeps the backup.
struct InstancePlacement {
  int instance_id = -1;
  int host_server = -1;
  int slave_server = -1;
};

/// The route table clients cache. `version` bumps on every change so a
/// client holding a stale table finds out on its next refresh after a
/// failed call.
struct RouteTable {
  uint64_t version = 0;
  std::vector<InstancePlacement> placements;  ///< indexed by instance id

  /// The placement serving `key`: keys hash onto instances. The one routing
  /// rule; every client op and every test that asks where a key lives uses
  /// it. `placements` must not be empty.
  const InstancePlacement& PlacementOf(std::string_view key) const {
    return placements[HashString(key) % placements.size()];
  }
};

/// The config server pair (host + backup, §3.3): owns the route table and
/// reacts to data-server failures by promoting slaves. Reads (GetRouteTable)
/// dominate; data traffic never touches it — clients go straight to data
/// servers once they have the table.
class ConfigServer {
 public:
  ConfigServer() = default;

  /// Installs the initial placement (done by the cluster at bootstrap).
  Status Install(RouteTable table);

  Result<RouteTable> GetRouteTable() const;
  uint64_t Version() const;

  /// Handles the failure of `server_id`: every instance hosted there fails
  /// over to its slave (the slave becomes host; the slave slot empties until
  /// a recovery re-seeds it). Returns the affected instance ids.
  Result<std::vector<int>> OnServerDown(int server_id);

  /// Re-adds `server_id` as the slave of every instance that currently has
  /// no slave (post-recovery).
  Result<std::vector<int>> OnServerRecovered(int server_id);

  /// Mirrors state changes into the backup config server.
  void SetBackup(ConfigServer* backup) { backup_ = backup; }

 private:
  mutable std::mutex mu_;
  RouteTable table_;
  ConfigServer* backup_ = nullptr;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_CONFIG_SERVER_H_
