// Deterministic structure-aware mutator behind the wire fuzzer,
// tests/wire_fuzz_test.cpp.
//
// The mutator is seeded with the repo's own Rng (xoshiro256**), so a given
// (seed, base frame) pair always yields the same mutation sequence — corpus
// reproduction needs nothing beyond the seed printed by a failing run.
//
// Mutation grammar (one op per mutate() call, chosen uniformly):
//   bit-flips     1-8 single-bit flips at random offsets
//   byte-stomp    1-4 bytes overwritten with random values
//   field-swap    two 4-byte windows exchanged (header field transposition)
//   length-lie    a 16- or 32-bit big-endian boundary value (0, 1, 2^n-1,
//                 size-1, size, size+1, 0xFFFF, 0xFFFFFFFF) written over a
//                 random offset — targets every length/offset field
//   truncate      resize to a random prefix (models cut-off frames)
//   extend        1-64 random trailing bytes (models trailing garbage)
//   splice        prefix of this frame + suffix of a second valid frame
//                 (models mid-stream resync and fragment interleave bugs)
#pragma once

#include <algorithm>

#include "common/buffer.hpp"
#include "common/rng.hpp"

namespace dgiwarp::fuzz {

class Mutator {
 public:
  explicit Mutator(u64 seed) : rng_(seed) {}

  Rng& rng() { return rng_; }

  /// One mutated copy of `base`. When `other` is non-empty the splice op is
  /// in the pool; otherwise six ops are. Never reads outside base/other.
  Bytes mutate(ConstByteSpan base, ConstByteSpan other = {}) {
    Bytes out(base.begin(), base.end());
    const u64 op = rng_.below(other.empty() ? 6 : 7);
    switch (op) {
      case 0: {  // bit flips
        if (out.empty()) break;
        const u64 n = 1 + rng_.below(8);
        for (u64 i = 0; i < n; ++i)
          out[rng_.below(out.size())] ^= static_cast<u8>(1u << rng_.below(8));
        break;
      }
      case 1: {  // byte stomp
        if (out.empty()) break;
        const u64 n = 1 + rng_.below(4);
        for (u64 i = 0; i < n; ++i)
          out[rng_.below(out.size())] = static_cast<u8>(rng_.next_u64());
        break;
      }
      case 2: {  // 4-byte field swap
        if (out.size() < 8) break;
        const std::size_t a = rng_.below(out.size() - 3);
        const std::size_t b = rng_.below(out.size() - 3);
        for (int i = 0; i < 4; ++i) std::swap(out[a + i], out[b + i]);
        break;
      }
      case 3: {  // length lie: boundary value over a plausible field
        if (out.size() < 2) break;
        static constexpr u64 kBoundary[] = {0,      1,      2,          0x7F,
                                            0x80,   0xFF,   0x7FFF,     0x8000,
                                            0xFFFF, 1u << 20, 0x7FFFFFFF, 0xFFFFFFFF};
        u64 v = kBoundary[rng_.below(std::size(kBoundary))];
        switch (rng_.below(3)) {  // also aim near the true size
          case 0: v = out.size() > 0 ? out.size() - 1 : 0; break;
          case 1: v = out.size() + 1; break;
          default: break;
        }
        if (out.size() >= 4 && rng_.chance(0.5)) {
          const std::size_t at = rng_.below(out.size() - 3);
          for (int i = 0; i < 4; ++i)
            out[at + i] = static_cast<u8>(v >> (8 * (3 - i)));
        } else {
          const std::size_t at = rng_.below(out.size() - 1);
          out[at] = static_cast<u8>(v >> 8);
          out[at + 1] = static_cast<u8>(v);
        }
        break;
      }
      case 4: {  // truncate
        out.resize(rng_.below(out.size() + 1));
        break;
      }
      case 5: {  // extend with trailing garbage
        const u64 n = 1 + rng_.below(64);
        for (u64 i = 0; i < n; ++i)
          out.push_back(static_cast<u8>(rng_.next_u64()));
        break;
      }
      case 6: {  // splice two valid frames
        const std::size_t cut = rng_.below(out.size() + 1);
        const std::size_t from = rng_.below(other.size() + 1);
        out.resize(cut);
        out.insert(out.end(), other.begin() + static_cast<long>(from),
                   other.end());
        break;
      }
    }
    return out;
  }

 private:
  Rng rng_;
};

}  // namespace dgiwarp::fuzz
