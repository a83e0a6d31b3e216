// User-space UDP over the IpLayer. Datagram semantics: message boundaries
// preserved, no ordering, no reliability; datagrams above the wire MTU are
// IP-fragmented and reassembled all-or-nothing.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "hoststack/ip.hpp"

namespace dgiwarp::host {

class UdpLayer;

/// One bound UDP socket. Obtained from UdpLayer::open(); closed via
/// UdpLayer::close() or automatically when the layer is destroyed.
class UdpSocket {
 public:
  /// (source endpoint, datagram payload, corruption taint); runs after
  /// kernel rx costs. `tainted` is the simulator's oracle (see
  /// IpLayer::ProtocolHandler) — measurement only, never protocol input.
  using DatagramHandler = std::function<void(Endpoint, Bytes, bool tainted)>;

  u16 local_port() const { return port_; }

  /// The socket's only delivery path: without a handler, what arrives is
  /// counted and dropped.
  void set_handler(DatagramHandler h) { handler_ = std::move(h); }

  /// Send one datagram (payload <= 65507 B). Charges the kernel sendto path.
  Status send_to(Endpoint dst, ConstByteSpan data);

  u64 datagrams_received() const { return rx_count_; }

 private:
  friend class UdpLayer;
  UdpSocket(UdpLayer& layer, u16 port);

  void deliver(Endpoint src, Bytes data, bool tainted);

  UdpLayer& layer_;
  u16 port_;
  DatagramHandler handler_;
  MemCharge mem_;
  // hoststack.udp.*; the Metric feeds datagrams_received().
  telemetry::Counter& tx_count_;
  telemetry::Metric rx_count_;
};

class UdpLayer {
 public:
  UdpLayer(HostCtx& ctx, IpLayer& ip);

  /// Bind a socket to `port` (0 picks an ephemeral port).
  Result<UdpSocket*> open(u16 port = 0);
  void close(UdpSocket* sock);

  HostCtx& ctx() { return ctx_; }
  IpLayer& ip() { return ip_; }

 private:
  void on_datagram(u32 src_ip, Bytes dgram, bool tainted);

  HostCtx& ctx_;
  IpLayer& ip_;
  std::unordered_map<u16, std::unique_ptr<UdpSocket>> sockets_;
  u16 next_ephemeral_ = 49'152;
  telemetry::Counter& parse_rejects_;
};

}  // namespace dgiwarp::host
