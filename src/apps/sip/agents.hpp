// SIP user agents over the iWARP socket interface — the paper's SIPp
// server/client experiment (§VI.B.2).
//
// Workload (SipStone basic call): INVITE -> 200 -> ACK, hold, BYE -> 200.
// In UD mode every call gets its own UDP port on both sides ("SIPp was
// configured to generate a load emulating many clients, which creates a
// single UDP port for each client"); in RC mode every call is a TCP/RC
// connection. Figure 10 measures the request/response time under light
// load; Figure 11 measures whole-stack server memory at N concurrent calls
// via the host MemLedger.
#pragma once

#include <map>
#include <memory>

#include "apps/sip/transaction.hpp"
#include "isock/isock.hpp"

namespace dgiwarp::sip {

enum class Transport { kUd, kRc };

/// SIP timer T1 (request retransmission over unreliable transports).
inline constexpr TimeNs kT1 = 100 * kMillisecond;
/// INVITE retransmissions (doubling from T1) before a UD call is abandoned.
inline constexpr int kMaxRetransmits = 6;
/// App-level cost of building or parsing one SIP message (SIPp-scale text
/// processing on the paper's 2 GHz Opterons).
inline constexpr TimeNs kAppProcess = 90 * kMicrosecond;
/// Extra per-connection application handling on the RC/TCP path (accept
/// bookkeeping, per-connection fd state — SIPp's TCP mode overhead the
/// paper attributes the Figure 10 gap to).
inline constexpr TimeNs kRcConnOverhead = 300 * kMicrosecond;

struct SipConfig {
  /// The server's SIP port; fixed, read through the config.
  static constexpr u16 server_port = 5060;
  /// Gap between successive new calls during mass setup (SIPp call rate).
  TimeNs setup_interval = 200 * kMicrosecond;
};

class SipServer {
 public:
  /// The server reads no setting of SipConfig; it takes one so that both
  /// agents can be built from the same config.
  SipServer(isock::ISockStack& io, Transport transport,
            const SipConfig& = {});

  Status start();

  std::size_t active_calls() const { return calls_.size(); }
  u64 requests_handled() const { return requests_; }
  u64 parse_errors() const { return parse_errors_; }

 private:
  struct ServedCall {
    CallRecord record;
    int fd = -1;  // dedicated per-call socket / accepted connection
    MemCharge app_mem;
  };

  void on_main_datagram(host::Endpoint src, ConstByteSpan data);
  void on_call_datagram(const std::string& call_id, host::Endpoint src,
                        ConstByteSpan data);
  void handle_request(const SipMessage& req, int fd, host::Endpoint reply_to);
  void on_stream_accept(int fd);

  isock::ISockStack& io_;
  Transport transport_;
  int main_fd_ = -1;
  std::map<std::string, std::unique_ptr<ServedCall>> calls_;
  std::map<int, std::string> stream_buffers_;  // per-connection rx text
  u64 requests_ = 0;
  u64 parse_errors_ = 0;
};

class SipClient {
 public:
  SipClient(isock::ISockStack& io, Transport transport, host::Endpoint server,
            SipConfig cfg = {});

  /// One full transaction measurement: sets up a call, returns the
  /// INVITE -> 200 OK time, then releases the call (Figure 10).
  Result<TimeNs> invite_response_time(TimeNs deadline = 2 * kSecond);

  /// Bring up `n` concurrent calls and hold them (Figure 11). Returns how
  /// many reached Established within the deadline.
  std::size_t establish_calls(std::size_t n, TimeNs deadline);

  /// Non-blocking half of establish_calls: create `n` calls and schedule
  /// their paced INVITEs, but do not run the simulation. Returns how many
  /// calls were created (socket exhaustion stops early). Cluster harnesses
  /// use this to arm many clients and then drive one shared wait loop.
  std::size_t start_calls(std::size_t n);

  /// BYE every held call and wait for the 200s.
  void teardown_all(TimeNs deadline);

  /// Non-blocking teardown halves: send the BYEs now / release sockets and
  /// call state once the owner has finished its own wait.
  void start_teardown();
  void finish_teardown();

  std::size_t established() const;
  std::size_t terminated() const { return terminated_count_; }
  std::size_t calls() const { return calls_.size(); }

 private:
  struct ClientCall {
    CallRecord record;
    int fd = -1;
    host::Endpoint dialog_peer;  // where in-dialog requests go (UD)
    MemCharge app_mem;
    int retries = 0;
    u64 retry_gen = 0;
  };

  Result<int> open_call_socket();
  Status send_request(ClientCall& call, Method m);
  void arm_retransmit(const std::string& call_id, Method m, TimeNs delay);
  void on_response(ClientCall& call, ConstByteSpan data);

  isock::ISockStack& io_;
  Transport transport_;
  host::Endpoint server_;
  SipConfig cfg_;
  std::map<std::string, std::unique_ptr<ClientCall>> calls_;
  std::map<int, std::string> stream_rx_;  // per-connection response text
  u32 next_call_ = 1;
  // O(1) progress counters: the establish/teardown waits test these after
  // every simulation event, so they must not scan the call table.
  std::size_t established_count_ = 0;
  std::size_t terminated_count_ = 0;
};

}  // namespace dgiwarp::sip
