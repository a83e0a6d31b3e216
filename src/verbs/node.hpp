// Node: one fully provisioned end system, built in a single call.
//
// The node-array experiments (bench/fig12_scale) stand up hundreds of
// endpoints; spelling out Host + Device + PD + CQs + QP for each one is the
// construction boilerplate this bundle removes. A NodeSpec describes what
// the node should carry — device configuration and optionally a
// ready-to-use datagram endpoint (plain UD or UD-over-RD) — and Node
// materialises it against a sim::Topology. Placement (which leaf switch,
// which port) is the topology's policy; the node only knows its global
// index. Every host charges the one cost table, host::kCostModel.
#pragma once

#include <memory>
#include <string>

#include "verbs/device.hpp"

namespace dgiwarp::verbs {

struct NodeSpec {
  std::string name;          // "" => "node<index>" assigned at build time
  DeviceConfig dev;          // RNIC configuration (CRC policy, RD params...)
  bool tcp_checksum = true;  // kernel TCP checksum offload stays on

  /// Datagram endpoint provisioned at construction.
  enum class Endpoint { kNone, kUd, kRd };
  Endpoint endpoint = Endpoint::kNone;  // on an ephemeral UDP port
  std::size_t cq_capacity = 4096;
};

/// Host + Device (+ optional UD/RD queue pair) bundle. Everything is owned
/// by the Node and lives as long as it; accessors hand out references for
/// the common pieces so call sites read like the unbundled code they
/// replace.
class Node {
 public:
  Node(sim::Topology& topo, NodeSpec spec);

  host::Host& host() { return *host_; }
  Device& device() { return *device_; }
  ProtectionDomain& pd() { return pd_; }
  CompletionQueue& send_cq() { return *send_cq_; }
  CompletionQueue& recv_cq() { return *recv_cq_; }

  /// The provisioned datagram endpoint; null when spec.endpoint == kNone
  /// or QP creation failed (see status()).
  const std::shared_ptr<UdQueuePair>& qp() const { return qp_; }
  const Status& status() const { return status_; }

  const std::string& name() const { return spec_.name; }
  std::size_t index() const { return host_->fabric_index(); }
  u32 addr() const { return host_->addr(); }
  MemLedger& ledger() { return host_->ledger(); }

 private:
  NodeSpec spec_;
  std::unique_ptr<host::Host> host_;
  std::unique_ptr<Device> device_;
  // Declared before qp_, which refers to them, so they outlive it.
  ProtectionDomain pd_;
  std::shared_ptr<CompletionQueue> send_cq_;
  std::shared_ptr<CompletionQueue> recv_cq_;
  std::shared_ptr<UdQueuePair> qp_;
  Status status_ = Status::Ok();
};

}  // namespace dgiwarp::verbs
