// User-space IPv4-like layer: datagram addressing, fragmentation to the
// wire MTU, and all-or-nothing reassembly with a timeout.
//
// The all-or-nothing property matters for the paper's loss experiments: a
// UDP datagram larger than the wire MTU is fragmented, and loss of ANY
// fragment discards the entire datagram (Figures 7-8 hinge on this).
#pragma once

#include <functional>
#include <map>
#include <unordered_map>

#include "common/byte_ranges.hpp"
#include "common/lazy_deque.hpp"
#include "common/memledger.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "hoststack/cost_model.hpp"
#include "simnet/cpu.hpp"
#include "simnet/nic.hpp"

namespace dgiwarp::host {

/// Everything a protocol layer needs from its host. The ledger is shared:
/// charged objects (sockets, QPs) may outlive the host via pending timers.
struct HostCtx {
  sim::Simulation& sim;
  sim::CpuModel& cpu;
  sim::Nic& nic;
  const CostModel& costs;
  std::shared_ptr<MemLedger> ledger;
  Rng& rng;
  u32 ip;  // this host's address
  // The message-lifecycle span (telemetry/span.hpp) currently being
  // processed on this host, or 0. The tx path is synchronous from verbs
  // post down to the frame, so a scoped set (SpanScope) is enough to stamp
  // Frame::span without threading an argument through every layer; the rx
  // path re-establishes the scope from the frame around each deferred
  // delivery closure. Always 0 when span tracking is disabled.
  u64 active_span = 0;
  // Congestion-experienced bit of the datagram currently being delivered
  // up the receive path (Frame::ecn, OR-ed across fragments). Propagated
  // ambiently like active_span — scoped by IP around deliver(), captured
  // into UDP's deferred delivery closures — so transports (RD/UD) can read
  // the mark without widening every handler signature. Always false when
  // no link has an ECN threshold configured.
  bool rx_ecn = false;
};

/// RAII scope for HostCtx::active_span: sets it for the dynamic extent of
/// a layer call chain and restores the previous value on exit (nesting is
/// real: e.g. RD retransmission runs inside an ACK-delivery scope).
class SpanScope {
 public:
  SpanScope(HostCtx& ctx, u64 span) : ctx_(ctx), prev_(ctx.active_span) {
    ctx_.active_span = span;
  }
  ~SpanScope() { ctx_.active_span = prev_; }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  HostCtx& ctx_;
  u64 prev_;
};

/// RAII scope for HostCtx::rx_ecn, the receive-path twin of SpanScope: set
/// for the dynamic extent of a delivery chain, restored on exit.
class EcnScope {
 public:
  EcnScope(HostCtx& ctx, bool ecn) : ctx_(ctx), prev_(ctx.rx_ecn) {
    ctx_.rx_ecn = ecn;
  }
  ~EcnScope() { ctx_.rx_ecn = prev_; }
  EcnScope(const EcnScope&) = delete;
  EcnScope& operator=(const EcnScope&) = delete;

 private:
  HostCtx& ctx_;
  bool prev_;
};

/// An empty buffer for a transport to build a datagram of `bytes` in. It
/// also holds the IP header that IpLayer::send puts in front of a datagram
/// that fits one fragment, so that send does not reallocate it.
inline Bytes datagram_buffer(std::size_t bytes) {
  Bytes b;
  b.reserve(kIpHeaderBytes + bytes);
  return b;
}

/// IP protocol numbers used by the stack.
inline constexpr u8 kIpProtoTcp = 6;
inline constexpr u8 kIpProtoUdp = 17;

/// Transport endpoint (address + port).
struct Endpoint {
  u32 ip = 0;
  u16 port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const {
    return std::hash<u64>{}((u64{e.ip} << 16) ^ e.port);
  }
};

class IpLayer {
 public:
  /// `tainted` is the simulator's corruption oracle: true if any frame that
  /// contributed bytes to this datagram was damaged in flight. Transports
  /// forward it so CRC-off runs can count silent escapes; it must never
  /// steer protocol decisions.
  using ProtocolHandler =
      std::function<void(u32 src_ip, Bytes datagram, bool tainted)>;

  explicit IpLayer(HostCtx& ctx);

  /// Register the upper-layer handler for an IP protocol number. The
  /// handler runs after per-fragment receive costs and (for fragmented
  /// datagrams) full reassembly.
  void register_protocol(u8 proto, ProtocolHandler handler);

  /// Send one IP datagram (payload <= 65515 B). Fragments to the wire MTU.
  /// Charges per-fragment transmit cost to this host's CPU. A datagram
  /// that fits one fragment becomes the frame's payload, with the header
  /// inserted in front: built in datagram_buffer(), it allocates nothing.
  Status send(u8 proto, u32 dst_ip, Bytes payload);

  /// Entry point for frames delivered by the NIC.
  void on_frame(sim::Frame f);

 private:
  struct FragKey {
    u32 src;
    u8 proto;
    u16 ident;
    friend bool operator<(const FragKey& a, const FragKey& b) {
      return std::tie(a.src, a.proto, a.ident) <
             std::tie(b.src, b.proto, b.ident);
    }
  };
  struct Partial {
    Bytes data;                  // reassembly buffer (sized on first frag)
    std::size_t received = 0;    // distinct payload bytes received so far
    std::size_t total = 0;       // 0 until the last fragment arrives
    bool tainted = false;        // any contributing frame was corrupted
    bool ecn = false;            // any contributing frame was CE-marked
    u64 span = 0;                // lifecycle span from contributing frames
    // Covered byte ranges. Duplicate or overlapping fragments (duplicating
    // links, retransmitting middleboxes) must not count twice, or
    // reassembly completes early with a hole.
    std::vector<ByteRange> ranges;
    TimeNs deadline = 0;
    u64 generation = 0;
  };

  void deliver(u32 src_ip, u8 proto, Bytes datagram, bool tainted);

  HostCtx& ctx_;
  // Fragments waiting for the kernel lane to finish preparing them, oldest
  // first; each transmit event takes the front one.
  LazyDeque<sim::Frame> tx_queue_;
  std::unordered_map<u8, ProtocolHandler> handlers_;
  std::map<FragKey, Partial> partials_;
  TimeNs reassembly_timeout_ = 30 * kMillisecond;
  u16 next_ident_ = 1;
  u64 next_generation_ = 1;
  telemetry::Counter& dgrams_tx_;
  telemetry::Counter& dgrams_rx_;
  telemetry::Counter& reassembly_expired_;
  telemetry::Counter& frags_tx_;
  telemetry::Counter& parse_rejects_;
};

}  // namespace dgiwarp::host
