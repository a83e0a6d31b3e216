// Byte buffers, span views and big-endian wire (de)serialization.
//
// A payload travels as one contiguous buffer per layer, not as an I/O
// vector (DESIGN.md §10).
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/memcount.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace dgiwarp {

// Counting allocator so every wire buffer in the stack feeds the
// allocs-per-event self-metric (common/memcount.hpp). Layout-compatible
// with std::vector<u8>; the allocator is stateless.
using Bytes = std::vector<u8, mem::CountingAllocator<u8>>;
using ByteSpan = std::span<u8>;
using ConstByteSpan = std::span<const u8>;

/// Appends `s` to `out`: a resize, then one memcpy. libstdc++ copies a
/// range into a vector whose allocator is not std::allocator one byte per
/// iteration, so src/ copies ranges into `Bytes` only through this and
/// to_bytes (the ctest lint_bytes_copies checks). The resize grows the
/// capacity by the same rule as a range insert at end(), so capacities and
/// allocation counts are those of that insert.
/// `s` must not view `out`: the resize may move `out`'s storage.
void append(Bytes& out, ConstByteSpan s);

/// An owned copy of `s`, sized exactly (one allocation unless empty).
inline Bytes to_bytes(ConstByteSpan s) {
  Bytes out;
  append(out, s);
  return out;
}

/// Appends big-endian fields to an owned byte vector (network byte order,
/// as all iWARP wire headers are defined big-endian).
class WireWriter {
 public:
  explicit WireWriter(Bytes& out) : out_(out) {}

  void u8be(u8 v) { out_.push_back(v); }
  void u16be(u16 v) {
    out_.push_back(static_cast<dgiwarp::u8>(v >> 8));
    out_.push_back(static_cast<dgiwarp::u8>(v));
  }
  void u32be(u32 v) {
    for (int s = 24; s >= 0; s -= 8)
      out_.push_back(static_cast<dgiwarp::u8>(v >> s));
  }
  void u64be(u64 v) {
    for (int s = 56; s >= 0; s -= 8)
      out_.push_back(static_cast<dgiwarp::u8>(v >> s));
  }
  void bytes(ConstByteSpan s) { append(out_, s); }

 private:
  Bytes& out_;
};

/// Reads big-endian fields from a byte span; underflow is a checked error.
class WireReader {
 public:
  explicit WireReader(ConstByteSpan in) : in_(in) {}

  std::size_t remaining() const { return in_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool ok() const { return ok_; }

  u8 u8be() { return take(1) ? in_[pos_ - 1] : 0; }
  u16 u16be() {
    if (!take(2)) return 0;
    return static_cast<u16>((u16{in_[pos_ - 2]} << 8) | in_[pos_ - 1]);
  }
  u32 u32be() {
    if (!take(4)) return 0;
    u32 v = 0;
    for (std::size_t i = pos_ - 4; i < pos_; ++i) v = (v << 8) | in_[i];
    return v;
  }
  u64 u64be() {
    if (!take(8)) return 0;
    u64 v = 0;
    for (std::size_t i = pos_ - 8; i < pos_; ++i) v = (v << 8) | in_[i];
    return v;
  }
  ConstByteSpan bytes(std::size_t n) {
    if (!take(n)) return {};
    return in_.subspan(pos_ - n, n);
  }
  ConstByteSpan rest() {
    auto r = in_.subspan(pos_);
    pos_ = in_.size();
    return r;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  ConstByteSpan in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Convenience: make an owned buffer from a string's characters.
inline Bytes bytes_of(const std::string& s) {
  return to_bytes({reinterpret_cast<const u8*>(s.data()), s.size()});
}

/// Deterministic pattern fill used by tests to detect misplacement.
inline void fill_pattern(ByteSpan dst, u32 seed) {
  u32 x = seed * 2654435761u + 1u;
  for (auto& b : dst) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<u8>(x);
  }
}

inline Bytes make_pattern(std::size_t n, u32 seed) {
  Bytes b(n);
  fill_pattern(ByteSpan{b}, seed);
  return b;
}

}  // namespace dgiwarp
