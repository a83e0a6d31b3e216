#include "verbs/node.hpp"

namespace dgiwarp::verbs {

Node::Node(sim::Topology& topo, NodeSpec spec) : spec_(std::move(spec)) {
  if (spec_.name.empty())
    spec_.name = "node" + std::to_string(topo.hosts());
  host_ = std::make_unique<host::Host>(topo, spec_.name);
  host_->tcp().set_validate_checksum(spec_.tcp_checksum);
  device_ = std::make_unique<Device>(*host_, spec_.dev);
  pd_ = &device_->create_pd();
  send_cq_ = &device_->create_cq(spec_.cq_capacity);
  recv_cq_ = &device_->create_cq(spec_.cq_capacity);

  if (spec_.endpoint == NodeSpec::Endpoint::kNone) return;
  UdQpAttr attr;
  attr.pd = pd_;
  attr.send_cq = send_cq_;
  attr.recv_cq = recv_cq_;
  attr.reliable = spec_.endpoint == NodeSpec::Endpoint::kRd;
  auto qp = device_->create_ud_qp(attr);
  if (qp.ok())
    qp_ = std::move(qp).value();
  else
    status_ = qp.status();
}

}  // namespace dgiwarp::verbs
