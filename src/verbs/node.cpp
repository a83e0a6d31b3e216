#include "verbs/node.hpp"

namespace dgiwarp::verbs {

namespace {

NodeSpec named(NodeSpec spec, const sim::Topology& topo) {
  if (spec.name.empty()) spec.name = "node" + std::to_string(topo.hosts());
  return spec;
}

}  // namespace

Node::Node(sim::Topology& topo, NodeSpec spec)
    : spec_(named(std::move(spec), topo)),
      host_(std::make_unique<host::Host>(topo, spec_.name)),
      device_(std::make_unique<Device>(*host_, spec_.dev)),
      pd_(*host_),
      send_cq_(device_->create_cq(spec_.cq_capacity)),
      recv_cq_(device_->create_cq(spec_.cq_capacity)) {
  host_->tcp().set_validate_checksum(spec_.tcp_checksum);

  if (spec_.endpoint == NodeSpec::Endpoint::kNone) return;
  UdQpAttr attr;
  attr.pd = &pd_;
  attr.send_cq = send_cq_.get();
  attr.recv_cq = recv_cq_.get();
  attr.reliable = spec_.endpoint == NodeSpec::Endpoint::kRd;
  auto qp = device_->create_ud_qp(attr);
  if (qp.ok())
    qp_ = std::move(qp).value();
  else
    status_ = qp.status();
}

}  // namespace dgiwarp::verbs
