// Link-layer frame carried across the simulated fabric.
#pragma once

#include "common/buffer.hpp"
#include "common/types.hpp"

namespace dgiwarp::sim {

/// Link-layer address. For simplicity the fabric uses the host's IPv4-style
/// address directly (no ARP); sim::Topology programs each one into the
/// switches' forwarding tables as its host attaches.
using LinkAddr = u32;

/// Bytes a frame occupies on the wire beyond its payload: Ethernet header
/// (14) + FCS (4) + preamble/SFD (8) + inter-frame gap (12).
inline constexpr std::size_t kEthernetOverhead = 38;

struct Frame {
  LinkAddr src = 0;
  LinkAddr dst = 0;
  u16 proto = 0;  // ethertype-like demux key (kProtoIpv4 in practice)
  Bytes payload;
  u64 id = 0;  // unique id for tracing / loss diagnostics
  // Message-lifecycle span carrying this frame (telemetry/span.hpp); 0 when
  // span tracking is off or the frame is transport control (pure ACKs).
  // Purely observational — never consulted by protocol logic and not part
  // of any wire format.
  u64 span = 0;
  // Set by Link when a CorruptionModel damaged the payload in flight. The
  // taint rides the frame through the switch and up the receive stack so
  // layers can count silent escapes when their CRC/checksum is disabled;
  // real NICs obviously have no such oracle — it exists purely for
  // measurement and is never consulted by protocol logic.
  bool corrupted = false;
  // Congestion-experienced (ECN CE) bit, set by a Link whose output queue
  // was at or above its ecn_threshold when this frame was enqueued. Unlike
  // `corrupted` this IS protocol-visible: it rides the IP/UDP receive path
  // (HostCtx::rx_ecn) into the RD/UD receivers, which echo it back to the
  // sender's RateController (src/cc/). Always false when no link has a
  // marking threshold configured — the default fabric never sets it.
  bool ecn = false;

  std::size_t wire_bytes() const { return payload.size() + kEthernetOverhead; }
};

inline constexpr u16 kProtoIpv4 = 0x0800;

}  // namespace dgiwarp::sim
