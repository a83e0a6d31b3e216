#include "apps/sip/agents.hpp"

#include "common/log.hpp"

namespace dgiwarp::sip {

namespace {

/// Extract one complete SIP message from a stream buffer (Content-Length
/// framing); returns nullopt until enough bytes are present.
std::optional<SipMessage> extract_sip_message(std::string& buf) {
  const auto head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::nullopt;
  std::size_t content_length = 0;
  const auto cl_at = buf.find("Content-Length:");
  if (cl_at != std::string::npos && cl_at < head_end)
    content_length = std::strtoul(buf.c_str() + cl_at + 15, nullptr, 10);
  const std::size_t total = head_end + 4 + content_length;
  if (buf.size() < total) return std::nullopt;
  auto parsed = SipMessage::parse(ConstByteSpan{
      reinterpret_cast<const u8*>(buf.data()), total});
  buf.erase(0, total);
  if (!parsed.ok()) return std::nullopt;
  return *parsed;
}

}  // namespace

// ---------------------------------------------------------------------------
// SipServer
// ---------------------------------------------------------------------------

SipServer::SipServer(isock::ISockStack& io, Transport transport,
                     const SipConfig&)
    : io_(io), transport_(transport) {}

Status SipServer::start() {
  if (transport_ == Transport::kUd) {
    // The listening socket needs a deep receive ring (it absorbs every
    // initial INVITE); per-call sockets stay small.
    auto fd = io_.socket(isock::SockType::kDatagram, 256, 2048);
    if (!fd.ok()) return fd.status();
    main_fd_ = *fd;
    if (Status st = io_.bind(main_fd_, SipConfig::server_port); !st.ok())
      return st;
    io_.set_datagram_handler(
        main_fd_, [this](host::Endpoint src, ConstByteSpan data) {
          on_main_datagram(src, data);
        });
    return Status::Ok();
  }

  auto fd = io_.socket(isock::SockType::kStream);
  if (!fd.ok()) return fd.status();
  main_fd_ = *fd;
  if (Status st = io_.bind(main_fd_, SipConfig::server_port); !st.ok())
    return st;
  return io_.listen(main_fd_, [this](int conn) { on_stream_accept(conn); });
}

void SipServer::on_main_datagram(host::Endpoint src, ConstByteSpan data) {
  io_.device().host().cpu().charge(kAppProcess);
  auto parsed = SipMessage::parse(data);
  if (!parsed.ok()) {
    ++parse_errors_;
    return;
  }
  const SipMessage& req = *parsed;
  if (!req.is_request()) return;
  ++requests_;

  const std::string call_id = req.call_id();
  auto it = calls_.find(call_id);
  int fd = main_fd_;

  if (req.method == Method::kInvite && it == calls_.end()) {
    // New call: dedicate a socket (port) to the dialog, like the paper's
    // one-UDP-port-per-client SIPp configuration.
    auto call_fd = io_.socket(isock::SockType::kDatagram);
    if (!call_fd.ok() || !io_.bind(*call_fd, 0).ok()) return;
    auto call = std::make_unique<ServedCall>();
    call->record.call_id = call_id;
    call->record.created = io_.device().host().sim().now();
    call->fd = *call_fd;
    call->app_mem = MemCharge(io_.device().host().ledger_ptr(), "sip.call",
                              CallRecord::kAppBytesPerCall);
    io_.set_datagram_handler(
        *call_fd, [this, call_id](host::Endpoint s, ConstByteSpan d) {
          on_call_datagram(call_id, s, d);
        });
    fd = *call_fd;
    it = calls_.emplace(call_id, std::move(call)).first;
  } else if (it != calls_.end()) {
    fd = it->second->fd;
  }

  handle_request(req, fd, src);
}

void SipServer::on_call_datagram(const std::string& call_id,
                                 host::Endpoint src, ConstByteSpan data) {
  io_.device().host().cpu().charge(kAppProcess);
  auto parsed = SipMessage::parse(data);
  if (!parsed.ok()) {
    ++parse_errors_;
    return;
  }
  if (!parsed->is_request()) return;
  ++requests_;
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  handle_request(*parsed, it->second->fd, src);
}

void SipServer::handle_request(const SipMessage& req, int fd,
                               host::Endpoint reply_to) {
  auto it = calls_.find(req.call_id());
  CallRecord scratch;
  CallRecord& record = it != calls_.end() ? it->second->record : scratch;

  const UasAction act = uas_on_request(record, req.method);
  // A BYE both owes a 200 and retires the dialog's dedicated socket. The
  // close must chain BEHIND the deferred response send: the send sits on
  // the CPU model (charge_then) while a bare after(0) close would fire at
  // `now`, beating it and swallowing the 200 on a dead fd.
  const bool destroys = act.call_destroyed && it != calls_.end();
  const int closing_fd =
      destroys && transport_ == Transport::kUd ? it->second->fd : -1;
  if (destroys) calls_.erase(it);

  if (act.respond_code != 0) {
    // The response leaves only after the app has parsed the request and
    // built the reply (gates the measured response time, Figure 10).
    const SipMessage rsp = make_response(req, act.respond_code, act.reason);
    Bytes wire = rsp.serialize();
    const Transport transport = transport_;
    io_.device().host().cpu().charge_then(
        kAppProcess, [this, fd, reply_to, transport, closing_fd,
                      wire = std::move(wire)] {
          if (transport == Transport::kUd) {
            (void)io_.sendto(fd, reply_to, ConstByteSpan{wire});
          } else {
            (void)io_.send(fd, ConstByteSpan{wire});
          }
          if (closing_fd >= 0)
            io_.device().host().sim().after(
                0, [this, closing_fd] { (void)io_.close(closing_fd); });
        });
  } else if (closing_fd >= 0) {
    // No response owed: still defer the close out of this socket's own
    // receive handler.
    io_.device().host().sim().after(
        0, [this, closing_fd] { (void)io_.close(closing_fd); });
  }
}

void SipServer::on_stream_accept(int fd) {
  // Per-connection application handling (fd bookkeeping, logging) — the
  // TCP-mode overhead SIPp pays for every call's connection.
  io_.device().host().cpu().charge(kRcConnOverhead);
  stream_buffers_[fd] = {};
  io_.set_stream_handler(fd, [this, fd](ConstByteSpan data) {
    std::string& buf = stream_buffers_[fd];
    buf.append(reinterpret_cast<const char*>(data.data()), data.size());
    while (auto msg = extract_sip_message(buf)) {
      io_.device().host().cpu().charge(kAppProcess);
      if (!msg->is_request()) continue;
      ++requests_;
      const std::string call_id = msg->call_id();
      auto it = calls_.find(call_id);
      if (msg->method == Method::kInvite && it == calls_.end()) {
        auto call = std::make_unique<ServedCall>();
        call->record.call_id = call_id;
        call->record.created = io_.device().host().sim().now();
        call->fd = fd;
        call->app_mem = MemCharge(io_.device().host().ledger_ptr(),
                                  "sip.call", CallRecord::kAppBytesPerCall);
        calls_.emplace(call_id, std::move(call));
      }
      handle_request(*msg, fd, {});
    }
  });
}

// ---------------------------------------------------------------------------
// SipClient
// ---------------------------------------------------------------------------

SipClient::SipClient(isock::ISockStack& io, Transport transport,
                     host::Endpoint server, SipConfig cfg)
    : io_(io), transport_(transport), server_(server), cfg_(cfg) {}

Result<int> SipClient::open_call_socket() {
  if (transport_ == Transport::kUd) {
    auto fd = io_.socket(isock::SockType::kDatagram);
    if (!fd.ok()) return fd;
    if (Status st = io_.bind(*fd, 0); !st.ok()) return st;
    return fd;
  }
  return io_.socket(isock::SockType::kStream);
}

Status SipClient::send_request(ClientCall& call, Method m) {
  io_.device().host().cpu().charge(kAppProcess);
  SipMessage req = make_request(m, "uac" + call.record.call_id,
                                "service", call.record.call_id,
                                call.record.cseq++);
  const Bytes wire = req.serialize();
  if (m == Method::kInvite) call.record.state = CallState::kInviteSent;
  if (m == Method::kBye) call.record.state = CallState::kByeSent;
  // Unreliable transport: arm RFC 3261 Timer A retransmission for
  // transaction-forming requests.
  if (transport_ == Transport::kUd &&
      (m == Method::kInvite || m == Method::kBye))
    arm_retransmit(call.record.call_id, m, kT1);
  const int fd = call.fd;
  if (transport_ == Transport::kUd) {
    const host::Endpoint dst =
        m == Method::kInvite ? server_ : call.dialog_peer;
    io_.device().host().cpu().charge_then(
        0, [this, fd, dst, wire] { (void)io_.sendto(fd, dst,
                                                    ConstByteSpan{wire}); });
    return Status::Ok();
  }
  io_.device().host().cpu().charge_then(
      0, [this, fd, wire] { (void)io_.send(fd, ConstByteSpan{wire}); });
  return Status::Ok();
}

void SipClient::on_response(ClientCall& call, ConstByteSpan data) {
  io_.device().host().cpu().charge(kAppProcess);
  auto parsed = SipMessage::parse(data);
  if (!parsed.ok() || parsed->is_request()) return;
  const CallState before = call.record.state;
  const Method next = uac_on_response(call.record, parsed->status_code,
                                      parsed->cseq());
  if (call.record.state == CallState::kEstablished &&
      call.record.answered == 0) {
    call.record.answered = io_.device().host().sim().now();
    ++established_count_;
  }
  if (before != CallState::kTerminated &&
      call.record.state == CallState::kTerminated)
    ++terminated_count_;
  if (next == Method::kAck) (void)send_request(call, Method::kAck);
}

void SipClient::arm_retransmit(const std::string& call_id, Method m,
                               TimeNs delay) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  const u64 gen = ++it->second->retry_gen;
  io_.device().host().sim().after(delay, [this, call_id, m, gen, delay] {
    auto cit = calls_.find(call_id);
    if (cit == calls_.end()) return;
    ClientCall& call = *cit->second;
    if (call.retry_gen != gen) return;  // a newer request superseded us
    const bool still_waiting =
        (m == Method::kInvite && call.record.state == CallState::kInviteSent) ||
        (m == Method::kBye && call.record.state == CallState::kByeSent);
    if (!still_waiting) return;
    if (++call.retries > kMaxRetransmits) return;  // abandoned
    // Retransmit the request verbatim (same CSeq).
    io_.device().host().cpu().charge(kAppProcess);
    --call.record.cseq;  // reuse the sequence number
    SipMessage req = make_request(m, "uac" + call.record.call_id, "service",
                                  call.record.call_id, call.record.cseq++);
    const Bytes wire = req.serialize();
    const host::Endpoint dst =
        m == Method::kInvite ? server_ : call.dialog_peer;
    (void)io_.sendto(call.fd, dst, ConstByteSpan{wire});
    arm_retransmit(call_id, m, delay * 2);
  });
}

Result<TimeNs> SipClient::invite_response_time(TimeNs deadline) {
  const std::size_t before = calls_.size();
  if (establish_calls(1, deadline) != before + 1)
    return Status(Errc::kTimedOut, "call did not establish");
  // Find the newest call and report INVITE -> 200 time.
  TimeNs created = 0, answered = 0;
  for (const auto& [_, c] : calls_) {
    if (c->record.created >= created) {
      created = c->record.created;
      answered = c->record.answered;
    }
  }
  teardown_all(deadline);
  return answered - created;
}

std::size_t SipClient::establish_calls(std::size_t n, TimeNs deadline) {
  auto& sim = io_.device().host().sim();
  const TimeNs limit = sim.now() + deadline;
  start_calls(n);
  sim.run_while_pending(
      [this] { return established_count_ >= calls_.size(); }, limit);
  return established();
}

std::size_t SipClient::start_calls(std::size_t n) {
  auto& sim = io_.device().host().sim();
  std::size_t created = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto fd = open_call_socket();
    if (!fd.ok()) break;
    auto call = std::make_unique<ClientCall>();
    const std::string call_id = "call-" + std::to_string(next_call_++);
    call->record.call_id = call_id;
    call->record.created = sim.now();
    call->fd = *fd;
    call->app_mem = MemCharge(io_.device().host().ledger_ptr(), "sip.call",
                              CallRecord::kAppBytesPerCall);
    ClientCall* raw = call.get();
    calls_.emplace(call_id, std::move(call));
    ++created;

    if (transport_ == Transport::kUd) {
      io_.set_datagram_handler(
          *fd, [this, raw](host::Endpoint src, ConstByteSpan data) {
            raw->dialog_peer = src;  // in-dialog requests follow the 200
            on_response(*raw, data);
          });
      // Pace call setup like SIPp's call rate: a zero-time burst of N
      // INVITEs would just exercise the retransmission machinery.
      sim.after(static_cast<TimeNs>(i) * cfg_.setup_interval,
                [this, call_id] {
                  auto it = calls_.find(call_id);
                  if (it != calls_.end())
                    (void)send_request(*it->second, Method::kInvite);
                });
    } else {
      stream_rx_[*fd] = {};
      io_.set_stream_handler(*fd, [this, raw, fd = *fd](ConstByteSpan data) {
        std::string& buf = stream_rx_[fd];
        buf.append(reinterpret_cast<const char*>(data.data()), data.size());
        while (auto msg = extract_sip_message(buf)) {
          const Bytes wire = msg->serialize();
          on_response(*raw, ConstByteSpan{wire});
        }
      });
      sim.after(static_cast<TimeNs>(i) * cfg_.setup_interval,
                [this, raw, fd = *fd] {
                  (void)io_.connect(fd, server_, [this, raw](Status st) {
                    if (st.ok()) (void)send_request(*raw, Method::kInvite);
                  });
                });
    }
  }
  return created;
}

void SipClient::teardown_all(TimeNs deadline) {
  auto& sim = io_.device().host().sim();
  start_teardown();
  sim.run_while_pending(
      [this] { return terminated_count_ >= calls_.size(); },
      sim.now() + deadline);
  finish_teardown();
}

void SipClient::start_teardown() {
  for (auto& [_, call] : calls_) {
    if (call->record.state == CallState::kEstablished)
      (void)send_request(*call, Method::kBye);
  }
}

void SipClient::finish_teardown() {
  for (auto& [_, call] : calls_) (void)io_.close(call->fd);
  calls_.clear();
  stream_rx_.clear();
  established_count_ = 0;
  terminated_count_ = 0;
}

std::size_t SipClient::established() const { return established_count_; }

}  // namespace dgiwarp::sip
