#include "mpa/mpa.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dgiwarp::mpa {

namespace {

std::size_t pad_for(std::size_t ulpdu_len) {
  return (4 - ((kLengthBytes + ulpdu_len) % 4)) % 4;
}

}  // namespace

std::size_t framed_size(std::size_t ulpdu_len, u64 stream_pos,
                        const MpaConfig& cfg) {
  std::size_t raw = kLengthBytes + ulpdu_len + pad_for(ulpdu_len);
  if (cfg.use_crc) raw += kCrcBytes;
  if (!cfg.use_markers) return raw;
  // Count markers hit while writing `raw` bytes starting at stream_pos.
  std::size_t total = 0;
  u64 pos = stream_pos;
  std::size_t left = raw;
  while (left > 0) {
    if (pos > 0 && pos % kMarkerInterval == 0) {
      total += kMarkerBytes;
      pos += kMarkerBytes;
    }
    const std::size_t to_boundary = static_cast<std::size_t>(
        kMarkerInterval - (pos % kMarkerInterval));
    const std::size_t n = std::min(left, to_boundary);
    pos += n;
    left -= n;
    total += n;
  }
  return total;
}

std::size_t max_ulpdu_for(std::size_t stream_budget, const MpaConfig& cfg) {
  std::size_t overhead = kLengthBytes + (cfg.use_crc ? kCrcBytes : 0) + 3;
  if (cfg.use_markers)
    overhead += ((stream_budget / kMarkerInterval) + 1) * kMarkerBytes;
  if (stream_budget <= overhead) return 0;
  std::size_t l = stream_budget - overhead;
  // Tighten: framed_size is position dependent; use worst case (pos == 0 is
  // best case, so assume a marker can land anywhere) — the loop above
  // already included one extra marker, so l is safe for any position.
  return l;
}

void MpaSender::emit(Bytes& out, ConstByteSpan raw) {
  std::size_t off = 0;
  while (off < raw.size()) {
    if (cfg_.use_markers && pos_ > 0 && pos_ % kMarkerInterval == 0) {
      // Marker: 2B reserved + 2B pointer back to the FPDU start.
      const u64 back = pos_ - fpdu_start_;
      WireWriter w(out);
      w.u16be(0);
      w.u16be(static_cast<u16>(back > 0xFFFF ? 0xFFFF : back));
      pos_ += kMarkerBytes;
    }
    std::size_t n = raw.size() - off;
    if (cfg_.use_markers) {
      const std::size_t to_boundary = static_cast<std::size_t>(
          kMarkerInterval - (pos_ % kMarkerInterval));
      n = std::min(n, to_boundary);
    }
    append(out, raw.subspan(off, n));
    off += n;
    pos_ += n;
  }
}

std::size_t MpaSender::frame(Bytes& out, ConstByteSpan head,
                             ConstByteSpan body) {
  const std::size_t start = out.size();
  const std::size_t len = head.size() + body.size();
  // Grow `out` once per FPDU, as one append of the whole FPDU would, so the
  // piecewise appends below never reallocate it.
  const std::size_t need = start + framed_size(len, pos_, cfg_);
  if (out.capacity() < need) out.reserve(std::max(need, 2 * start));
  fpdu_start_ = pos_;
  // The CRC covers length, ULPDU and pad; markers are not part of it.
  Crc32 crc;
  const auto put = [&](ConstByteSpan raw) {
    if (cfg_.use_crc) crc.update(raw);
    emit(out, raw);
  };
  const u8 len_be[kLengthBytes] = {static_cast<u8>(len >> 8),
                                   static_cast<u8>(len)};
  static constexpr u8 kPad[3] = {};
  put(len_be);
  put(head);
  put(body);
  put(ConstByteSpan{kPad, pad_for(len)});
  if (cfg_.use_crc) {
    const u32 c = crc.final();
    const u8 crc_be[kCrcBytes] = {static_cast<u8>(c >> 24),
                                  static_cast<u8>(c >> 16),
                                  static_cast<u8>(c >> 8), static_cast<u8>(c)};
    emit(out, crc_be);
  }
  return out.size() - start;
}

Status MpaReceiver::consume(ConstByteSpan stream, bool tainted) {
  if (poisoned_) return Status(Errc::kConnectionReset, "MPA stream poisoned");

  // Strip markers by absolute stream position.
  std::size_t off = 0;
  while (off < stream.size()) {
    if (cfg_.use_markers &&
        (marker_seen_ > 0 || (pos_ > 0 && pos_ % kMarkerInterval == 0))) {
      // A marker (4 B) occupies this position; it may itself be split
      // across consume() calls, tracked by marker_seen_.
      const std::size_t take = std::min<std::size_t>(
          kMarkerBytes - marker_seen_, stream.size() - off);
      marker_seen_ += take;
      off += take;
      pos_ += take;
      if (marker_seen_ < kMarkerBytes) break;  // wait for the rest
      marker_seen_ = 0;
      continue;
    }
    std::size_t n = stream.size() - off;
    if (cfg_.use_markers) {
      const std::size_t to_boundary = static_cast<std::size_t>(
          kMarkerInterval - (pos_ % kMarkerInterval));
      n = std::min(n, to_boundary);
    }
    append(pending_, stream.subspan(off, n));
    if (!taint_runs_.empty() && taint_runs_.back().second == tainted)
      taint_runs_.back().first += n;
    else
      taint_runs_.emplace_back(n, tainted);
    off += n;
    pos_ += n;
  }

  return process_defragged();
}

// Consume `n` bytes worth of taint runs (front of pending_); returns true
// if any consumed byte was tainted.
bool MpaReceiver::take_taint(std::size_t n) {
  bool tainted = false;
  while (n > 0 && !taint_runs_.empty()) {
    auto& [run, t] = taint_runs_.front();
    const std::size_t take = std::min(run, n);
    if (t) tainted = true;
    run -= take;
    n -= take;
    if (run == 0) taint_runs_.pop_front();
  }
  return tainted;
}

Status MpaReceiver::process_defragged() {
  std::size_t head = 0;
  while (pending_.size() - head >= kLengthBytes) {
    const std::size_t len =
        (std::size_t{pending_[head]} << 8) | pending_[head + 1];
    const std::size_t body = kLengthBytes + len + pad_for(len);
    const std::size_t total = body + (cfg_.use_crc ? kCrcBytes : 0);
    if (pending_.size() - head < total) break;

    if (cfg_.use_crc) {
      const u32 want = crc32_ieee(
          ConstByteSpan{pending_}.subspan(head, body));
      const ConstByteSpan cb = ConstByteSpan{pending_}.subspan(head + body, 4);
      const u32 got = (u32{cb[0]} << 24) | (u32{cb[1]} << 16) |
                      (u32{cb[2]} << 8) | cb[3];
      if (want != got) {
        ++crc_failures_;
        poisoned_ = true;
        pending_.clear();
        taint_runs_.clear();
        return Status(Errc::kCrcError, "MPA FPDU CRC mismatch");
      }
    }

    const bool fpdu_tainted = take_taint(total);
    if (handler_)
      handler_(ConstByteSpan{pending_}.subspan(head + kLengthBytes, len),
               fpdu_tainted);
    head += total;
  }
  if (head > 0)
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(head));
  return Status::Ok();
}

}  // namespace dgiwarp::mpa
