// iWARP socket interface (paper §V.A).
//
// Translates BSD-style socket calls onto iWARP verbs so existing socket
// applications gain datagram-iWARP without rewrites. Key design points
// reproduced from the paper:
//  * one socket maps to exactly one QP; only the fd->QP association and
//    socket type are tracked in the interface, everything else lives in the
//    socket structure;
//  * datagram sockets use UD QPs (send/recv or Write-Record data path),
//    stream sockets use RC QPs;
//  * BUFFERED-COPY receive path: to support many application buffers on a
//    single socket without re-advertising STags per buffer, incoming data
//    lands in a pre-registered pool and is copied to the application's
//    buffer on recv — which is why Write-Record and send/recv measure
//    nearly identically at the application level (paper §VI.B.1);
//  * a native passthrough mode (plain UDP, no iWARP) used to measure the
//    interface's own overhead (paper: ~2%).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/lazy_deque.hpp"
#include "common/region.hpp"
#include "verbs/device.hpp"
#include "verbs/qp_rc.hpp"
#include "verbs/qp_ud.hpp"

namespace dgiwarp::isock {

using host::Endpoint;

enum class SockType { kDatagram, kStream };

/// Data path for datagram sockets.
enum class XferMode { kSendRecv, kWriteRecord };

struct ISockConfig {
  /// false: native passthrough straight onto kernel UDP (overhead baseline).
  bool use_iwarp = true;
  XferMode ud_mode = XferMode::kSendRecv;
  /// Run datagram sockets over the reliable-datagram layer.
  bool reliable_dgram = false;
  /// Buffered-copy pool geometry (per datagram socket).
  std::size_t pool_slots = 32;
  std::size_t slot_bytes = 64 * 1024;
};

/// Per-host socket interface instance. All calls are nonblocking; receive
/// delivery is push (handler) or pull (recvfrom/read on the internal queue).
class ISockStack {
 public:
  using DatagramHandler = std::function<void(Endpoint, ConstByteSpan)>;
  using StreamDataHandler = std::function<void(ConstByteSpan)>;
  using AcceptHandler = std::function<void(int fd)>;
  using ConnectHandler = std::function<void(Status)>;

  explicit ISockStack(verbs::Device& device, ISockConfig config = {});
  ~ISockStack();
  // Callbacks on the host and the Device hold the stack's address.
  ISockStack(const ISockStack&) = delete;
  ISockStack& operator=(const ISockStack&) = delete;

  /// socket(): allocate an fd of the given type. For datagram sockets the
  /// underlying UD QP (or native UDP socket) is created at bind() time.
  /// `pool_slots`/`slot_bytes` override the stack-wide buffered-copy pool
  /// geometry for this socket (0 = use the config default) — e.g. a busy
  /// SIP listener wants a deep ring while its per-call sockets stay tiny.
  Result<int> socket(SockType type, std::size_t pool_slots = 0,
                     std::size_t slot_bytes = 0);

  /// bind(): attach a local port (0 = ephemeral). Datagram sockets become
  /// usable immediately; stream sockets may then listen().
  Status bind(int fd, u16 port);

  // --- datagram operations -------------------------------------------------
  Status sendto(int fd, Endpoint dst, ConstByteSpan data);
  /// Pull-mode receive; empty when no datagram is queued.
  std::optional<std::pair<Endpoint, Bytes>> recvfrom(int fd);
  /// Push-mode receive.
  void set_datagram_handler(int fd, DatagramHandler h);

  // --- stream operations ---------------------------------------------------
  Status connect(int fd, Endpoint dst, ConnectHandler on_connected);
  Status listen(int fd, AcceptHandler on_accept);
  /// Returns bytes accepted (buffered-copy; bounded by the tx pool).
  std::size_t send(int fd, ConstByteSpan data);
  void set_stream_handler(int fd, StreamDataHandler h);

  Status close(int fd);

  verbs::Device& device() { return dev_; }
  /// The stack's own PD, which the sockets' receive pools are registered in.
  const verbs::ProtectionDomain& pd() const { return pd_; }
  /// STag of a bound iWARP datagram socket's receive pool (what Write-Record
  /// peers are advertised); 0 for other sockets and unknown fds.
  u32 pool_stag(int fd) const;

 private:
  struct PeerState {
    // Write-Record mode: the slot ring the peer advertised to us.
    u32 stag = 0;
    u32 slots = 0;
    u32 slot_bytes = 0;
    u32 remote_qpn = 0;
    u64 next_slot = 0;
    bool advertised = false;
    LazyDeque<std::pair<Endpoint, Bytes>> pending;  // awaiting advert
  };

  struct Sock {
    SockType type = SockType::kDatagram;
    bool bound = false;
    std::size_t pool_slots = 0;  // effective pool geometry
    std::size_t slot_bytes = 0;
    bool credit_flush_scheduled = false;

    // The socket owns its QP's two CQs, declared before `ud` and `rc` so
    // that they outlive the QP, which holds references to them. A listener
    // shares its pair with the sockets it accepts.
    std::shared_ptr<verbs::CompletionQueue> send_cq;
    std::shared_ptr<verbs::CompletionQueue> recv_cq;

    // iWARP datagram state.
    std::shared_ptr<verbs::UdQueuePair> ud;
    // Receive slot ring: registered for datagram sockets, the posted
    // receive buffers of stream sockets.
    ZeroRegion pool;
    verbs::MemoryRegion pool_mr{};
    std::vector<Bytes> rx_bufs;      // Write-Record mode control buffers
    std::map<Endpoint, PeerState> peers;

    // Native passthrough state.
    host::UdpSocket* native = nullptr;

    // Stream state.
    std::shared_ptr<verbs::RcQueuePair> rc;
    u16 listen_port = 0;
    bool listening = false;  // holds listen_port's accept callback
    LazyDeque<Bytes> tx_hold;        // buffered-copy staging for sends
    /// SDP-style flow control: messages the peer can still absorb. Both
    /// ends start from the same pool geometry; consumed buffers are
    /// re-credited in batches via kStreamCredit messages.
    std::size_t tx_credits = 0;
    std::size_t pending_credits = 0;

    // Memory accounting for the buffered-copy pools (counts toward the
    // Figure 11 whole-stack comparison).
    MemCharge pool_mem;

    // Delivery.
    DatagramHandler on_datagram;
    StreamDataHandler on_stream;
    AcceptHandler on_accept;
    LazyDeque<std::pair<Endpoint, Bytes>> rx_queue;  // for recvfrom()
  };

  Sock* find(int fd);
  const Sock* find(int fd) const;
  Status setup_datagram(int fd, Sock& s, u16 port);
  void pump_recv_cq(Sock& s);
  void post_pool_recvs(Sock& s);
  void post_stream_recvs(Sock& s);
  void deliver_datagram(Sock& s, Endpoint src, ConstByteSpan data);
  /// Counts one received datagram and hands it to the socket's handler, or
  /// queues it for recvfrom(), moving `owned` (the datagram's own buffer,
  /// when the caller can give it up) instead of copying `data`.
  void hand_off(Sock& s, Endpoint src, ConstByteSpan data,
                Bytes* owned = nullptr);
  void handle_control(Sock& s, Endpoint src, ConstByteSpan data);
  void send_advert(Sock& s, Endpoint dst, u32 remote_qpn);
  Status send_write_record(Sock& s, PeerState& peer, Endpoint dst,
                           ConstByteSpan data);
  void wire_stream_qp(int fd, Sock& s);
  void pump_stream_recv(verbs::CompletionQueue& cq);
  void pump_stream_send(verbs::CompletionQueue& cq);
  void send_stream_credits(Sock& s);
  /// Expires with the stack, for callbacks that can run after it is gone.
  /// Made on first use, so a stack without stream sockets allocates none.
  std::weak_ptr<const bool> alive_token();

  verbs::Device& dev_;
  ISockConfig cfg_;
  verbs::ProtectionDomain pd_;  // before socks_, whose QPs refer to it
  int next_fd_ = 3;
  std::map<int, Sock> socks_;
  std::map<u32, int> qpn_fd_;  // stream QP -> fd (CQs are shared on accept)
  // isock.{dgram,bytes}.{tx,rx} and isock.pool.rx_dropped_no_slot, which
  // every socket of the stack counts into. Fetched at the stack's first
  // socket(), so each key enters the registry there.
  telemetry::Counter* dgrams_tx_ = nullptr;
  telemetry::Counter* dgrams_rx_ = nullptr;
  telemetry::Counter* bytes_tx_ = nullptr;
  telemetry::Counter* bytes_rx_ = nullptr;
  telemetry::Counter* rx_dropped_no_slot_ = nullptr;
  std::shared_ptr<const bool> alive_;
};

}  // namespace dgiwarp::isock
