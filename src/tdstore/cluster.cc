#include "tdstore/cluster.h"

#include <algorithm>
#include <filesystem>

namespace tencentrec::tdstore {

namespace {

/// Engine options for one copy of `instance`: file-backed engines (FDB, RDB)
/// get a file of their own, named by the copy's `role`.
EngineOptions CopyEngineOptions(const EngineOptions& base, int instance,
                                const std::string& role) {
  EngineOptions engine = base;
  const std::string suffix = ".i" + std::to_string(instance) + "." + role;
  if (engine.type == EngineType::kFdb) {
    engine.fdb_path += suffix + ".fdb";
  } else if (engine.type == EngineType::kRdb) {
    engine.rdb_path += suffix + ".rdb";
  }
  return engine;
}

}  // namespace

Cluster::Cluster(const Options& options) : options_(options) {}

Result<std::unique_ptr<Cluster>> Cluster::Create(const Options& options) {
  if (options.num_data_servers < 1) {
    return Status::InvalidArgument("need at least one data server");
  }
  if (options.num_instances < 1) {
    return Status::InvalidArgument("need at least one instance");
  }
  std::unique_ptr<Cluster> cluster(new Cluster(options));
  Status s = cluster->Init();
  if (!s.ok()) return s;
  return cluster;
}

Status Cluster::Init() {
  num_instances_ = options_.num_instances;
  configs_[0] = std::make_unique<ConfigServer>();
  configs_[1] = std::make_unique<ConfigServer>();
  configs_[0]->SetBackup(configs_[1].get());

  for (int i = 0; i < options_.num_data_servers; ++i) {
    servers_.push_back(
        std::make_unique<DataServer>(i, options_.sync_replication));
  }

  const bool replicated = options_.num_data_servers >= 2;
  RouteTable table;
  for (int inst = 0; inst < num_instances_; ++inst) {
    InstancePlacement p;
    p.instance_id = inst;
    p.host_server = inst % options_.num_data_servers;
    p.slave_server =
        replicated ? (inst + 1) % options_.num_data_servers : -1;

    TR_RETURN_IF_ERROR(
        servers_[static_cast<size_t>(p.host_server)]->CreateInstance(
            inst, CopyEngineOptions(options_.engine, inst, "host")));
    TR_RETURN_IF_ERROR(
        servers_[static_cast<size_t>(p.host_server)]->SetHostRole(inst, true));
    if (replicated) {
      TR_RETURN_IF_ERROR(
          servers_[static_cast<size_t>(p.slave_server)]->CreateInstance(
              inst, CopyEngineOptions(options_.engine, inst, "slave")));
      TR_RETURN_IF_ERROR(
          servers_[static_cast<size_t>(p.host_server)]->SetSlave(
              inst, servers_[static_cast<size_t>(p.slave_server)].get()));
    }
    table.placements.push_back(p);
  }

  if (options_.durability.enabled) {
    if (options_.durability.dir.empty()) {
      return Status::InvalidArgument("durability.dir is required");
    }
    std::error_code ec;
    std::filesystem::create_directories(options_.durability.dir, ec);
    if (ec) {
      return Status::IOError("cannot create durability dir " +
                             options_.durability.dir + ": " + ec.message());
    }
    for (auto& server : servers_) {
      TR_RETURN_IF_ERROR(server->EnableDurability(options_.durability.dir,
                                                  options_.durability.wal));
    }
    // The commit point is the newest barrier EVERY server holds durably. A
    // barrier only one server fsynced before the crash is not a consistent
    // cut — some other server's ops for that batch may be lost — so
    // recovery stops at the minimum and truncates everything after it.
    uint64_t commit = servers_[0]->WalLastBarrier();
    for (auto& server : servers_) {
      commit = std::min(commit, server->WalLastBarrier());
    }
    for (auto& server : servers_) {
      TR_RETURN_IF_ERROR(server->RecoverDurable(commit));
    }
    recovered_barrier_ = commit;
    // Slave copies are not separately checkpointed; re-seed them from the
    // recovered hosts (a no-op scan on a cold start).
    for (const auto& p : table.placements) {
      if (p.slave_server < 0) continue;
      DataServer* host = servers_[static_cast<size_t>(p.host_server)].get();
      DataServer* slave = servers_[static_cast<size_t>(p.slave_server)].get();
      TR_RETURN_IF_ERROR(host->CopyInstanceTo(p.instance_id, slave));
    }
  }

  return configs_[0]->Install(std::move(table));
}

DataServer* Cluster::data_server(int server_id) {
  if (server_id < 0 || server_id >= static_cast<int>(servers_.size())) {
    return nullptr;
  }
  return servers_[static_cast<size_t>(server_id)].get();
}

Status Cluster::FailDataServer(int server_id) {
  DataServer* server = data_server(server_id);
  if (server == nullptr) return Status::NotFound("no such server");
  if (server->IsDown()) return Status::FailedPrecondition("already down");

  // Snapshot the table before mutating it so we can stop replication from
  // hosts whose slave just died.
  auto before = config().GetRouteTable();
  if (!before.ok()) return before.status();

  server->SetDown(true);
  auto affected = config().OnServerDown(server_id);
  if (!affected.ok()) return affected.status();

  for (const auto& p : before->placements) {
    if (p.slave_server == server_id && p.host_server >= 0) {
      DataServer* host = data_server(p.host_server);
      if (host != nullptr && !host->IsDown()) {
        TR_RETURN_IF_ERROR(host->SetSlave(p.instance_id, nullptr));
      }
    }
    if (p.host_server == server_id && p.slave_server >= 0) {
      // Promote the slave: it now serves client traffic for the instance
      // (no slave of its own until a recovery re-seeds one).
      DataServer* promoted = data_server(p.slave_server);
      if (promoted != nullptr && !promoted->IsDown()) {
        TR_RETURN_IF_ERROR(promoted->SetHostRole(p.instance_id, true));
      }
    }
  }
  return Status::OK();
}

Status Cluster::RecoverDataServer(int server_id) {
  DataServer* server = data_server(server_id);
  if (server == nullptr) return Status::NotFound("no such server");
  if (!server->IsDown()) return Status::FailedPrecondition("not down");

  // The server lost its state; it comes back blank and, crucially, without
  // its old host-role replication pointers (otherwise clearing its stale
  // data would cascade deletes into the live hosts).
  server->SetDown(false);
  server->ClearAllSlaves();
  auto reseeded = config().OnServerRecovered(server_id);
  if (!reseeded.ok()) return reseeded.status();

  auto table = config().GetRouteTable();
  if (!table.ok()) return table.status();
  for (int inst : *reseeded) {
    const InstancePlacement& p = table->placements[static_cast<size_t>(inst)];
    DataServer* host = data_server(p.host_server);
    if (host == nullptr) return Status::Internal("route names bad server");
    // Blow away any stale copy, then full-copy from the host and resume
    // replication.
    if (server->HasInstance(inst)) {
      TR_RETURN_IF_ERROR(server->ClearInstance(inst));
    } else {
      TR_RETURN_IF_ERROR(server->CreateInstance(
          inst, CopyEngineOptions(options_.engine, inst,
                                  "recovered" +
                                      std::to_string(table->version))));
    }
    TR_RETURN_IF_ERROR(host->CopyInstanceTo(inst, server));
    TR_RETURN_IF_ERROR(host->SetSlave(inst, server));
  }
  return Status::OK();
}

Status Cluster::FailActiveConfigServer() {
  if (config_failed_once_) return Status::FailedPrecondition("no backup left");
  config_failed_once_ = true;
  configs_[1]->SetBackup(nullptr);
  active_config_ = 1;
  return Status::OK();
}

Status Cluster::FlushReplication() {
  for (auto& server : servers_) {
    if (server->IsDown()) continue;
    TR_RETURN_IF_ERROR(server->FlushReplication());
  }
  return Status::OK();
}

Status Cluster::CommitBarrier(uint64_t barrier_id) {
  if (!options_.durability.enabled) return Status::OK();
  for (auto& server : servers_) {
    if (server->IsDown()) continue;
    TR_RETURN_IF_ERROR(server->AppendBarrier(barrier_id));
  }
  return Status::OK();
}

Status Cluster::Checkpoint(uint64_t barrier_id) {
  if (!options_.durability.enabled) return Status::OK();
  for (auto& server : servers_) {
    if (server->IsDown()) continue;
    TR_RETURN_IF_ERROR(server->Checkpoint(barrier_id));
  }
  return Status::OK();
}

}  // namespace tencentrec::tdstore
