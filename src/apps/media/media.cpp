#include "apps/media/media.hpp"

#include <cstring>

#include "common/log.hpp"

namespace dgiwarp::media {

namespace {

constexpr const char* kJoin = "JOIN";
constexpr const char* kHttpRequest = "GET /stream HTTP/1.0\r\n\r\n";
constexpr const char* kHttpResponse =
    "HTTP/1.0 200 OK\r\nContent-Type: application/octet-stream\r\n\r\n";

void build_frame(Bytes& buf, u32 seq) {
  buf.clear();
  WireWriter w(buf);
  w.u32be(seq);
  w.u32be(static_cast<u32>(kFrameBytes - kFrameHeaderBytes));
  buf.resize(kFrameBytes);
  fill_pattern(ByteSpan{buf}.subspan(kFrameHeaderBytes), seq);
}

}  // namespace

MediaServer::MediaServer(isock::ISockStack& io, StreamParams params)
    : io_(io), params_(params) {}

Status MediaServer::serve_udp(u16 port, std::size_t total_bytes) {
  auto fd = io_.socket(isock::SockType::kDatagram);
  if (!fd.ok()) return fd.status();
  if (Status st = io_.bind(*fd, port); !st.ok()) return st;
  io_.set_datagram_handler(*fd, [this, fd = *fd, total_bytes](
                                    Endpoint src, ConstByteSpan data) {
    if (data.size() == 4 && std::memcmp(data.data(), kJoin, 4) == 0)
      stream_udp_frames(fd, src, total_bytes);
  });
  return Status::Ok();
}

void MediaServer::stream_udp_frames(int fd, Endpoint client,
                                    std::size_t total_bytes) {
  auto& sim = io_.device().host().sim();
  const double rate =
      params_.burst_start ? params_.burst_rate_bps : kBitrateBps;
  const TimeNs frame_interval = static_cast<TimeNs>(
      static_cast<double>(kFrameBytes) * 8.0 / rate * 1e9);

  // The stored lambda captures itself weakly (the pending timer event holds
  // the only strong reference) so the chain frees itself when it ends.
  auto tick = std::make_shared<std::function<void(std::size_t)>>();
  *tick = [this, fd, client, frame_interval,
           weak = std::weak_ptr(tick)](std::size_t remaining) {
    if (remaining == 0) return;
    build_frame(frame_buf_, next_seq_++);
    (void)io_.sendto(fd, client, ConstByteSpan{frame_buf_});
    const std::size_t next =
        remaining > kFrameBytes ? remaining - kFrameBytes : 0;
    io_.device().host().sim().after(
        frame_interval, [t = weak.lock(), next] { if (t) (*t)(next); });
  };
  sim.after(0, [tick, total_bytes] { (*tick)(total_bytes); });
}

Status MediaServer::serve_http(u16 port, std::size_t total_bytes) {
  auto lfd = io_.socket(isock::SockType::kStream);
  if (!lfd.ok()) return lfd.status();
  if (Status st = io_.bind(*lfd, port); !st.ok()) return st;
  return io_.listen(*lfd, [this, total_bytes](int fd) {
    io_.set_stream_handler(fd, [this, fd, total_bytes](ConstByteSpan data) {
      if (http_pending_request_.size() > 4096) return;  // runaway guard
      http_pending_request_.append(reinterpret_cast<const char*>(data.data()),
                                   data.size());
      if (http_pending_request_.find("\r\n\r\n") == std::string::npos) return;
      http_pending_request_.clear();
      const std::string hdr = kHttpResponse;
      (void)io_.send(fd, ConstByteSpan{
                             reinterpret_cast<const u8*>(hdr.data()),
                             hdr.size()});
      stream_http_body(fd, total_bytes);
    });
  });
}

void MediaServer::stream_http_body(int fd, std::size_t total_bytes) {
  auto& sim = io_.device().host().sim();
  const TimeNs frame_interval = static_cast<TimeNs>(
      static_cast<double>(kFrameBytes) * 8.0 / kBitrateBps * 1e9);

  if (params_.burst_start) {
    // Send as fast as the socket accepts; retry on backpressure.
    auto pump = std::make_shared<std::function<void(std::size_t)>>();
    *pump = [this, fd, weak = std::weak_ptr(pump)](std::size_t remaining) {
      while (remaining > 0) {
        build_frame(frame_buf_, next_seq_++);
        const std::size_t n = io_.send(fd, ConstByteSpan{frame_buf_});
        if (n == 0) {
          --next_seq_;  // frame not accepted; resend the same one later
          io_.device().host().sim().after(
              50 * kMicrosecond,
              [p = weak.lock(), remaining] { if (p) (*p)(remaining); });
          return;
        }
        remaining -= std::min(remaining, kFrameBytes);
      }
    };
    sim.after(0, [pump, total_bytes] { (*pump)(total_bytes); });
    return;
  }

  // Live pacing through the HTTP mux buffer: frames accumulate and flush
  // in kHttpMuxChunk units (the server-side chunking VLC's HTTP output
  // exhibits), at the media bitrate.
  auto mux = std::make_shared<Bytes>();
  auto tick = std::make_shared<std::function<void(std::size_t)>>();
  *tick = [this, fd, mux, frame_interval,
           weak = std::weak_ptr(tick)](std::size_t remaining) {
    if (remaining == 0) {
      if (!mux->empty()) (void)io_.send(fd, ConstByteSpan{*mux});
      return;
    }
    build_frame(frame_buf_, next_seq_++);
    append(*mux, ConstByteSpan{frame_buf_});
    if (mux->size() >= kHttpMuxChunk) {
      (void)io_.send(fd, ConstByteSpan{*mux});
      mux->clear();
    }
    const std::size_t next =
        remaining > kFrameBytes ? remaining - kFrameBytes : 0;
    io_.device().host().sim().after(
        frame_interval, [t = weak.lock(), next] { if (t) (*t)(next); });
  };
  sim.after(0, [tick, total_bytes] { (*tick)(total_bytes); });
}

std::shared_ptr<MediaClient::Stream> MediaClient::start_udp(
    Endpoint server, std::size_t prebuffer) {
  auto fd = io_.socket(isock::SockType::kDatagram);
  if (!fd.ok()) return nullptr;
  if (!io_.bind(*fd, 0).ok()) return nullptr;

  auto s = std::make_shared<Stream>();
  s->fd = *fd;
  s->prebuffer = prebuffer;
  s->started = io_.device().host().sim().now();

  io_.set_datagram_handler(*fd, [s](Endpoint, ConstByteSpan data) {
    if (data.size() < kFrameHeaderBytes) return;
    WireReader r(data);
    const u32 seq = r.u32be();
    r.u32be();
    if (s->expected_seq != 0 && seq > s->expected_seq + 1)
      s->result.sequence_gaps += seq - s->expected_seq - 1;
    s->expected_seq = std::max(s->expected_seq, seq);
    ++s->result.frames;
    s->result.bytes_received += data.size();
  });

  const Bytes join = bytes_of(kJoin);
  if (!io_.sendto(*fd, server, ConstByteSpan{join}).ok()) {
    (void)io_.close(*fd);
    return nullptr;
  }
  return s;
}

void MediaClient::finish(const std::shared_ptr<Stream>& s) {
  if (!s || s->fd < 0) return;
  s->result.completed = s->done();
  s->result.buffering_time = io_.device().host().sim().now() - s->started;
  (void)io_.close(s->fd);
  s->fd = -1;
}

ClientResult MediaClient::run_udp(Endpoint server, std::size_t prebuffer,
                                  TimeNs deadline) {
  auto s = start_udp(server, prebuffer);
  if (!s) return {};
  auto& sim = io_.device().host().sim();
  sim.run_while_pending([&] { return s->done(); }, s->started + deadline);
  finish(s);
  return s->result;
}

ClientResult MediaClient::run_http(Endpoint server, std::size_t prebuffer,
                                   TimeNs deadline) {
  ClientResult res;
  auto fd = io_.socket(isock::SockType::kStream);
  if (!fd.ok()) return res;

  bool headers_done = false;
  std::string header_buf;
  io_.set_stream_handler(*fd, [&](ConstByteSpan data) {
    std::size_t body_at = 0;
    if (!headers_done) {
      header_buf.append(reinterpret_cast<const char*>(data.data()),
                        data.size());
      const auto pos = header_buf.find("\r\n\r\n");
      if (pos == std::string::npos) return;
      headers_done = true;
      const std::size_t header_total = pos + 4;
      const std::size_t consumed_before =
          header_buf.size() - data.size();
      body_at = header_total > consumed_before ? header_total - consumed_before
                                               : 0;
    }
    if (body_at < data.size()) {
      res.bytes_received += data.size() - body_at;
      res.frames = res.bytes_received / 1316;
    }
  });

  auto& sim = io_.device().host().sim();
  const TimeNs t0 = sim.now();
  (void)io_.connect(*fd, server, [this, fd = *fd](Status st) {
    if (!st.ok()) return;
    const std::string req = kHttpRequest;
    (void)io_.send(fd, ConstByteSpan{
                           reinterpret_cast<const u8*>(req.data()),
                           req.size()});
  });

  res.completed = sim.run_while_pending(
      [&] { return res.bytes_received >= prebuffer; }, t0 + deadline);
  res.buffering_time = sim.now() - t0;
  (void)io_.close(*fd);
  return res;
}

}  // namespace dgiwarp::media
