// Device: the RNIC analogue of one host. It carries the stack-wide
// configuration (MPA markers/CRC, UD CRC policy, timeouts) and makes CQs
// and QPs, keeping none: each belongs to its caller, as does each
// ProtectionDomain, which the caller constructs from the host.
#pragma once

#include <functional>
#include <memory>

#include "mpa/mpa.hpp"
#include "rd/reliable.hpp"
#include "verbs/qp.hpp"

namespace dgiwarp::verbs {

class UdQueuePair;
class RcQueuePair;

struct DeviceConfig {
  /// RC stream framing. Markers+CRC on by default (standard-compliant);
  /// the MPA ablation bench switches markers off.
  mpa::MpaConfig mpa;
  /// DDP-layer CRC32 on the UD path. "Datagram-iWARP always requires the
  /// use of CRC32" (paper §IV.B item 6) — default on; ablation only.
  bool ud_crc = true;
  /// How long the target waits for the rest of a partially received UD
  /// message (send/recv) or Write-Record (missing LAST) before recovering
  /// the buffers / dropping the record.
  TimeNs ud_message_timeout = 50 * kMillisecond;
  /// Per-datagram payload budget on the UD path. Defaults to the UDP
  /// maximum (64 KB datagrams, kernel IP fragmentation below); the MTU
  /// ablation shrinks it to e.g. one wire MTU.
  std::size_t max_ud_payload = host::kMaxUdpPayload;
  /// Parameters for QPs created in reliable-datagram mode.
  rd::RdConfig rd;
  /// Enable the future-work extension: RDMA Read over UD (paper §VII).
  bool enable_ud_read = false;
};

/// Attributes for creating a UD QP. A QP, UD or RC, refers to its PD and
/// CQs for its whole life, so their owners keep them alive that long.
struct UdQpAttr {
  ProtectionDomain* pd = nullptr;
  CompletionQueue* send_cq = nullptr;
  CompletionQueue* recv_cq = nullptr;
  u16 port = 0;           // 0 = ephemeral UDP port
  bool reliable = false;  // run over the RD layer
};

/// Attributes for RC QPs (both connect() and QPs minted by a listener).
struct RcQpAttr {
  ProtectionDomain* pd = nullptr;
  CompletionQueue* send_cq = nullptr;
  CompletionQueue* recv_cq = nullptr;
};

class Device {
 public:
  explicit Device(host::Host& host, DeviceConfig cfg);
  explicit Device(host::Host& host);

  host::Host& host() { return host_; }
  const DeviceConfig& config() const { return cfg_; }

  /// Owned by the caller and by each completion still on its way to it.
  std::shared_ptr<CompletionQueue> create_cq(std::size_t capacity = 4096);

  /// Create a datagram QP bound to a local UDP port.
  Result<std::shared_ptr<UdQueuePair>> create_ud_qp(const UdQpAttr& attr);

  /// Active open of an RC QP: TCP connect + MPA handshake. The returned QP
  /// reaches RTS asynchronously; use RcQueuePair::on_established.
  Result<std::shared_ptr<RcQueuePair>> rc_connect(const RcQpAttr& attr,
                                                  host::Endpoint remote);

  /// Passive side: accepted connections become RC QPs built from `attr`
  /// and are delivered to `on_accept` once their MPA handshake completes.
  Status rc_listen(u16 port, RcQpAttr attr,
                   std::function<void(std::shared_ptr<RcQueuePair>)> on_accept);
  /// Undo rc_listen: the port refuses new connections. A QP still in its
  /// MPA handshake keeps its copy of `on_accept` and is delivered to it.
  void rc_stop_listening(u16 port);

  u32 alloc_qpn() { return next_qpn_++; }

 private:
  host::Host& host_;
  DeviceConfig cfg_;
  u32 next_qpn_ = 1;
};

}  // namespace dgiwarp::verbs
