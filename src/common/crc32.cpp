#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dgiwarp {

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
struct Tables {
  std::array<std::array<u32, 256>, 8> t;
  Tables() {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i) {
      u32 c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

u32 crc_table(u32 crc, const u8* p, std::size_t n) {
  const auto& t = tables().t;
  while (n >= 8) {
    const u32 lo = crc ^ (u32{p[0]} | (u32{p[1]} << 8) | (u32{p[2]} << 16) |
                          (u32{p[3]} << 24));
    const u32 hi =
        u32{p[4]} | (u32{p[5]} << 8) | (u32{p[6]} << 16) | (u32{p[7]} << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__)
// Carry-less-multiply folding after Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). The
// constants are x^k mod P for the bit-reflected polynomial, from the end of
// that paper. Each function here that uses an intrinsic carries the target
// attribute, as intrinsics do not inline into code built without it; a
// lambda would not inherit it, so the helpers are plain functions.

__attribute__((target("pclmul,sse4.1")))
__m128i load16(const u8* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x · k, low and high 64-bit halves multiplied apart, XORed onto `next`:
// moves x forward by the distance k encodes and adds the data found there.
__attribute__((target("pclmul,sse4.1")))
__m128i fold16(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// CRC state after `n` bytes at `p`, where n >= 64 and n % 16 == 0.
__attribute__((target("pclmul,sse4.1")))
u32 crc_fold(u32 crc, const u8* p, std::size_t n) {
  // _mm_set_epi64x takes the high half first: k1 and k3 multiply a lane's
  // low 64 bits, k2 and k4 its high. k1k2 moves a lane 512 bits ahead,
  // k3k4 128 bits.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four 128-bit lanes, each folded 64 bytes ahead per step.
  __m128i x0 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k1k2, load16(p));
    x1 = fold16(x1, k1k2, load16(p + 16));
    x2 = fold16(x2, k1k2, load16(p + 32));
    x3 = fold16(x3, k1k2, load16(p + 48));
  }
  // The lanes into one, then the remaining 16-byte blocks.
  x0 = fold16(x0, k3k4, x1);
  x0 = fold16(x0, k3k4, x2);
  x0 = fold16(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold16(x0, k3k4, load16(p));

  // 128 bits to 64, then to a 64-bit remainder of 32 significant bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5k0, 0x00));
  // Barrett reduction to the 32-bit CRC.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

bool have_clmul() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}
#endif

// Whole 16-byte blocks of inputs of 64 B or more go through the fold when
// the CPU has PCLMULQDQ; the table takes shorter inputs, the tail and CPUs
// without it.
u32 crc_update(u32 crc, const u8* p, std::size_t n) {
#if defined(__x86_64__)
  if (n >= 64 && have_clmul()) {
    const std::size_t blocks = n & ~std::size_t{15};
    crc = crc_fold(crc, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return crc_table(crc, p, n);
}

}  // namespace

u32 crc32_ieee(ConstByteSpan data) {
  return ~crc_update(0xFFFFFFFFu, data.data(), data.size());
}

void Crc32::update(ConstByteSpan data) {
  state_ = crc_update(state_, data.data(), data.size());
}

}  // namespace dgiwarp
