// MPA (Marker PDU Aligned framing) for the stream-based RC path.
//
// TCP is a byte stream: intermediate segmentation can split iWARP messages
// arbitrarily, so MPA frames each DDP segment as an FPDU
//     [ulpdu_len u16][ulpdu][pad to 4B][crc32 u32]
// and inserts a 4-byte marker into the stream every 512 bytes pointing back
// to the start of the FPDU in progress, letting a receiver resynchronise
// mid-stream. Datagram-iWARP removes this whole layer (paper §IV.B item 5):
// datagrams are self-delimiting — that is a large part of UD's advantage,
// and the ablation bench (ablation_mpa_markers) quantifies it.
//
// This implementation is functionally real: markers are truly interleaved
// into the byte stream at absolute stream positions and truly removed on
// receive; the CRC is a real CRC32 over the FPDU (markers excluded — a
// simplification from RFC 5044, which covers them; noted in DESIGN.md).
#pragma once

#include <deque>
#include <functional>

#include "common/buffer.hpp"
#include "common/crc32.hpp"
#include "common/status.hpp"

namespace dgiwarp::mpa {

/// Marker spacing mandated by the MPA spec.
inline constexpr std::size_t kMarkerInterval = 512;
inline constexpr std::size_t kMarkerBytes = 4;
inline constexpr std::size_t kLengthBytes = 2;
inline constexpr std::size_t kCrcBytes = 4;

struct MpaConfig {
  bool use_markers = true;
  bool use_crc = true;
};

/// Largest ULPDU that keeps one FPDU within `stream_budget` stream bytes
/// (accounting for length header, padding, CRC and worst-case markers).
/// This is the "MULPDU" the DDP layer asks MPA for.
std::size_t max_ulpdu_for(std::size_t stream_budget, const MpaConfig& cfg);

/// Overhead in stream bytes that framing a `ulpdu_len`-byte ULPDU adds,
/// given the current stream position (markers depend on position).
std::size_t framed_size(std::size_t ulpdu_len, u64 stream_pos,
                        const MpaConfig& cfg);

/// Sender side: converts ULPDUs (DDP segments) into the marker-laced byte
/// stream handed to TCP.
class MpaSender {
 public:
  explicit MpaSender(MpaConfig cfg = {}) : cfg_(cfg) {}

  /// Frame one ULPDU, `head` followed by `body` (on the RC path a DDP
  /// header and its payload), straight into `out`: length, ULPDU, pad and
  /// CRC, with markers laced in at their stream positions. Returns the
  /// number of stream bytes appended.
  std::size_t frame(Bytes& out, ConstByteSpan head, ConstByteSpan body = {});

  u64 stream_position() const { return pos_; }

 private:
  void emit(Bytes& out, ConstByteSpan raw);

  MpaConfig cfg_;
  u64 pos_ = 0;        // absolute stream position (for marker placement)
  u64 fpdu_start_ = 0; // stream position of the FPDU being emitted
};

/// Receiver side: consumes raw TCP stream bytes, strips markers, validates
/// CRCs and yields complete ULPDUs in order.
class MpaReceiver {
 public:
  /// (ULPDU, corruption taint). `tainted` mirrors the simulator's oracle:
  /// true when any stream byte of the FPDU rode a corrupted frame — with
  /// the MPA CRC on it can only be true for a CRC32 collision. The ULPDU is
  /// a view into the receiver's buffer, valid only for the handler call.
  using UlpduHandler = std::function<void(ConstByteSpan, bool tainted)>;

  explicit MpaReceiver(MpaConfig cfg = {}) : cfg_(cfg) {}

  void on_ulpdu(UlpduHandler h) { handler_ = std::move(h); }

  /// Feed stream bytes (any fragmentation). Returns an error if a CRC fails
  /// or a length field is nonsensical; the stream is then poisoned (per the
  /// spec an MPA stream error is fatal to the connection).
  Status consume(ConstByteSpan stream, bool tainted = false);

  u64 crc_failures() const { return crc_failures_; }
  bool poisoned() const { return poisoned_; }

 private:
  Status process_defragged();
  bool take_taint(std::size_t n);

  MpaConfig cfg_;
  UlpduHandler handler_;
  // De-markered bytes not yet consumed as FPDUs. Handlers see ULPDU spans
  // into it; it is not resized while one is out.
  Bytes pending_;
  // Run-length taint map aligned with pending_ (front of the deque covers
  // the front of pending_): <byte count, tainted>. Consumed by take_taint.
  std::deque<std::pair<std::size_t, bool>> taint_runs_;
  u64 pos_ = 0;      // absolute stream position (marker tracking)
  std::size_t marker_seen_ = 0;  // bytes of an in-flight marker consumed
  u64 crc_failures_ = 0;
  bool poisoned_ = false;
};

}  // namespace dgiwarp::mpa
