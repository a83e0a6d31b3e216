// Media streaming workload (the paper's VLC experiment, §VI.B.1).
//
// A server streams fixed-size media frames (1316 B = 7 MPEG-TS packets,
// VLC's UDP default) to one client, either:
//   * UDP mode — frames as datagrams over the iWARP socket interface
//     (send/recv or Write-Record data path underneath), or
//   * HTTP mode — an HTTP/1.0 response streamed over a stream socket (the
//     RC-compatible mode the paper compared against).
//
// The measured quantity is the client's INITIAL BUFFERING TIME: time from
// the stream request until `prebuffer` of media has arrived. Two pacing
// models are provided:
//   * live pacing (Figure 9): the server emits frames at the encoding
//     bitrate; the client must additionally honour the player's
//     per-protocol network-caching watermark — VLC's HTTP access module
//     buffers several times more than its UDP module, which is the bulk of
//     the measured UD-vs-RC gap (the paper itself notes "more inherent
//     overhead involved in the HTTP based method");
//   * burst start (the §VI.B.2 overhead experiment): the server sends the
//     prebuffer window as fast as the transport allows, so buffering time
//     measures stack goodput — used to compare the iWARP socket interface
//     against native UDP (paper: ~2% overhead).
#pragma once

#include "isock/isock.hpp"

namespace dgiwarp::media {

using host::Endpoint;

/// Encoded media rate of a live stream.
inline constexpr double kBitrateBps = 8e6;

struct StreamParams {
  bool burst_start = true;         // send at burst_rate (else at kBitrateBps)
  /// "As fast as possible" for a source-paced UDP stream still has a finite
  /// rate; an infinite burst would simply overrun the receiver's datagram
  /// queues. 600 Mb/s is close to the software stack's small-frame capacity.
  double burst_rate_bps = 600e6;
};

/// 7 TS packets per datagram (VLC's default).
inline constexpr std::size_t kFrameBytes = 1316;
/// Frame header: sequence number + payload length (gap detection).
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Server-side HTTP mux buffer.
inline constexpr std::size_t kHttpMuxChunk = 16 * 1024;

struct ClientResult {
  TimeNs buffering_time = 0;  // request -> prebuffer filled
  std::size_t bytes_received = 0;
  u64 frames = 0;
  u64 sequence_gaps = 0;  // lost/late frames detected via seq numbers
  bool completed = false;
};

/// Streaming server: serves one client per join/request.
class MediaServer {
 public:
  MediaServer(isock::ISockStack& io, StreamParams params);

  /// UDP mode: wait for a join datagram on `port`, then stream to its
  /// source address until `total_bytes` have been sent.
  Status serve_udp(u16 port, std::size_t total_bytes);

  /// HTTP mode: accept TCP on `port`, parse the GET, stream an HTTP/1.0
  /// response body of `total_bytes`.
  Status serve_http(u16 port, std::size_t total_bytes);

 private:
  void stream_udp_frames(int fd, Endpoint client, std::size_t total_bytes);
  void stream_http_body(int fd, std::size_t total_bytes);

  isock::ISockStack& io_;
  StreamParams params_;
  u32 next_seq_ = 1;
  Bytes frame_buf_;
  std::string http_pending_request_;
};

/// Streaming client: joins a stream and measures initial buffering.
class MediaClient {
 public:
  explicit MediaClient(isock::ISockStack& io) : io_(io) {}

  /// UDP join + receive until `prebuffer` bytes arrive (or deadline).
  ClientResult run_udp(Endpoint server, std::size_t prebuffer,
                       TimeNs deadline);

  /// HTTP GET + receive body until `prebuffer` bytes (or deadline).
  ClientResult run_http(Endpoint server, std::size_t prebuffer,
                        TimeNs deadline);

 private:
  /// One UDP stream's state, shared with its receive handler.
  struct Stream {
    ClientResult result;
    TimeNs started = 0;
    std::size_t prebuffer = 0;
    int fd = -1;
    u32 expected_seq = 0;
    bool done() const { return result.bytes_received >= prebuffer; }
  };

  /// run_udp's first half: join the stream and install the receive
  /// handler, without running the simulation. Null on socket exhaustion.
  std::shared_ptr<Stream> start_udp(Endpoint server, std::size_t prebuffer);

  /// run_udp's last half: stamp buffering_time/completed and release the
  /// stream's socket.
  void finish(const std::shared_ptr<Stream>& s);

  isock::ISockStack& io_;
};

}  // namespace dgiwarp::media
