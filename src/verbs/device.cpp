#include "verbs/device.hpp"

#include "verbs/qp_rc.hpp"
#include "verbs/qp_ud.hpp"

namespace dgiwarp::verbs {

Device::Device(host::Host& host, DeviceConfig cfg) : host_(host), cfg_(cfg) {}
Device::Device(host::Host& host) : Device(host, DeviceConfig{}) {}

std::shared_ptr<CompletionQueue> Device::create_cq(std::size_t capacity) {
  return std::make_shared<CompletionQueue>(host_, capacity);
}

Result<std::shared_ptr<UdQueuePair>> Device::create_ud_qp(
    const UdQpAttr& attr) {
  if (!attr.pd || !attr.send_cq || !attr.recv_cq)
    return Status(Errc::kInvalidArgument, "UD QP needs pd/send_cq/recv_cq");
  auto sock = host_.udp().open(attr.port);
  if (!sock.ok()) return sock.status();
  return std::shared_ptr<UdQueuePair>(new UdQueuePair(*this, attr, *sock));
}

Result<std::shared_ptr<RcQueuePair>> Device::rc_connect(const RcQpAttr& attr,
                                                        host::Endpoint remote) {
  if (!attr.pd || !attr.send_cq || !attr.recv_cq)
    return Status(Errc::kInvalidArgument, "RC QP needs pd/send_cq/recv_cq");
  auto qp = std::shared_ptr<RcQueuePair>(new RcQueuePair(*this, attr));
  qp->start_active(remote);
  return qp;
}

Status Device::rc_listen(
    u16 port, RcQpAttr attr,
    std::function<void(std::shared_ptr<RcQueuePair>)> on_accept) {
  if (!attr.pd || !attr.send_cq || !attr.recv_cq)
    return Status(Errc::kInvalidArgument, "RC QP needs pd/send_cq/recv_cq");
  return host_.tcp().listen(
      port, [this, attr, on_accept = std::move(on_accept)](
                host::TcpSocket::Ptr sock) {
        auto qp = std::shared_ptr<RcQueuePair>(new RcQueuePair(*this, attr));
        qp->start_passive(std::move(sock), on_accept);
      });
}

void Device::rc_stop_listening(u16 port) { host_.tcp().stop_listening(port); }

}  // namespace dgiwarp::verbs
