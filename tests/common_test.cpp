// Unit tests for the common substrate: CRC32, buffers, zero regions, lazy
// queues, wire codecs, RNG, statistics and the memory ledger.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/crc32.hpp"
#include "common/lazy_deque.hpp"
#include "common/memledger.hpp"
#include "common/region.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace dgiwarp {
namespace {

TEST(Crc32, KnownVectors) {
  // IEEE CRC32 of "123456789" is the classic check value 0xCBF43926.
  const Bytes check = bytes_of("123456789");
  EXPECT_EQ(crc32_ieee(ConstByteSpan{check}), 0xCBF43926u);
  // Empty input.
  EXPECT_EQ(crc32_ieee(ConstByteSpan{}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = make_pattern(10'000, 3);
  for (std::size_t split : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                            std::size_t{9999}}) {
    Crc32 inc;
    inc.update(ConstByteSpan{data}.subspan(0, split));
    inc.update(ConstByteSpan{data}.subspan(split));
    EXPECT_EQ(inc.final(), crc32_ieee(ConstByteSpan{data})) << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  Bytes data = make_pattern(512, 9);
  const u32 good = crc32_ieee(ConstByteSpan{data});
  for (std::size_t bit : {std::size_t{0}, std::size_t{2048},
                          std::size_t{4095}}) {
    data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    EXPECT_NE(crc32_ieee(ConstByteSpan{data}), good);
    data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
  }
}

// Bit-at-a-time CRC-32 over the reflected IEEE polynomial: the definition,
// shared with neither the table nor the carry-less-multiply fold.
u32 crc_bitwise(ConstByteSpan data) {
  u32 c = 0xFFFFFFFFu;
  for (const u8 byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseReference) {
  const Bytes data = make_pattern(65'543 + 16, 11);
  const ConstByteSpan all{data};
  // Table only (< 64 B), fold plus table tail (>= 64 B), at every alignment
  // of the start to a 16-byte block.
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const ConstByteSpan s = all.subspan(align, len);
      ASSERT_EQ(crc32_ieee(s), crc_bitwise(s)) << "align " << align
                                               << " len " << len;
    }
  }
  // An IP fragment's payload, an rd_lossy datagram, the largest IP datagram.
  for (std::size_t len : {1'480, 8'256, 65'543}) {
    for (std::size_t align : {0, 7}) {
      const ConstByteSpan s = all.subspan(align, len);
      EXPECT_EQ(crc32_ieee(s), crc_bitwise(s)) << "align " << align
                                               << " len " << len;
    }
  }
  // Updates split around the table/fold boundaries carry the state across.
  for (std::size_t len : {200, 8'256}) {
    const ConstByteSpan s = all.first(len);
    for (std::size_t split : {1, 15, 16, 63, 64, 65}) {
      Crc32 inc;
      inc.update(s.first(split));
      inc.update(s.subspan(split));
      EXPECT_EQ(inc.final(), crc_bitwise(s)) << "len " << len << " split "
                                             << split;
    }
  }
}

TEST(Bytes, AppendCopiesAndGrowsLikeInsert) {
  const Bytes src = make_pattern(8'256, 5);
  const ConstByteSpan all{src};

  // Content, including an empty span, which allocates nothing.
  Bytes out;
  append(out, {});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), 0u);
  append(out, all.first(3));
  append(out, all.subspan(3, 1'477));
  EXPECT_TRUE(std::equal(out.begin(), out.end(), src.begin()));
  EXPECT_EQ(out.size(), 1'480u);
  EXPECT_EQ(to_bytes(all), src);
  EXPECT_TRUE(to_bytes({}).empty());

  // Into reserved capacity: the buffer does not move.
  Bytes reserved;
  reserved.reserve(8'256);
  const u8* before = reserved.data();
  append(reserved, all.first(1'480));
  append(reserved, all.subspan(1'480));
  EXPECT_EQ(reserved.data(), before);
  EXPECT_EQ(reserved, src);

  // From an empty and from a partly filled buffer, each append leaves the
  // capacity, and costs the allocations, of the insert it replaces.
  for (std::size_t start : {0, 100}) {
    Bytes a = make_pattern(start, 6);
    Bytes b = a;
    for (std::size_t n : {0, 1, 7, 100, 1'480, 64, 8'256, 3}) {
      const ConstByteSpan s = all.first(n);
      const mem::AllocTally t0 = mem::snapshot();
      append(a, s);
      const mem::AllocTally by_append = mem::delta(t0);
      const mem::AllocTally t1 = mem::snapshot();
      b.insert(b.end(), s.begin(), s.end());
      const mem::AllocTally by_insert = mem::delta(t1);
      EXPECT_EQ(a, b) << "start " << start << " n " << n;
      EXPECT_EQ(a.capacity(), b.capacity()) << "start " << start << " n " << n;
      EXPECT_EQ(by_append.count, by_insert.count) << "start " << start;
      EXPECT_EQ(by_append.bytes, by_insert.bytes) << "start " << start;
    }
  }
}

TEST(ZeroRegion, ContentsReadZero) {
  for (std::size_t n : {0, 1, 4'096, 65'535, 65'536, 512 * 1024}) {
    ZeroRegion r(n);
    const ByteSpan s = r.span();
    ASSERT_EQ(s.size(), n);
    EXPECT_EQ(r.size(), n);
    EXPECT_TRUE(std::all_of(s.begin(), s.end(), [](u8 b) { return b == 0; }))
        << n;
  }
}

TEST(ZeroRegion, SpanSurvivesAMove) {
  for (std::size_t n : {4'096, 512 * 1024}) {
    ZeroRegion a(n);
    a.span()[7] = 0x5A;
    const ByteSpan before = a.span();

    ZeroRegion b(std::move(a));
    EXPECT_EQ(b.span().data(), before.data()) << n;
    EXPECT_EQ(b.span().size(), n);
    EXPECT_EQ(b.span()[7], 0x5A);
    EXPECT_TRUE(a.span().empty());

    ZeroRegion c(16);
    c = std::move(b);
    EXPECT_EQ(c.span().data(), before.data()) << n;
    EXPECT_EQ(c.size(), n);
    EXPECT_EQ(c.span()[7], 0x5A);
    EXPECT_EQ(b.size(), 0u);
  }
}

// The SIP listening ring's size, well under a 2 MiB transparent huge page:
// a write faults in one 4 KiB page, and the rest of the ring costs no RSS.
TEST(ZeroRegion, LargeRegionIsResidentOnlyWhereWritten) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "regions are heap Bytes under ASan";
#else
  const std::size_t n = 512 * 1024;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const auto resident = [&](ZeroRegion& r) {
    std::vector<unsigned char> vec((n + page - 1) / page);
    EXPECT_EQ(::mincore(r.span().data(), n, vec.data()), 0);
    return std::count_if(vec.begin(), vec.end(),
                         [](unsigned char v) { return (v & 1) != 0; });
  };
  const mem::AllocTally t0 = mem::snapshot();
  ZeroRegion r(n);
  EXPECT_EQ(mem::delta(t0).count, 0u);  // no Bytes behind it
  EXPECT_EQ(resident(r), 0);
  r.span()[300 * 1024] = 1;
  EXPECT_EQ(resident(r), 1);
#endif
}

TEST(ZeroRegion, SmallRegionIsHeapBacked) {
  const mem::AllocTally t0 = mem::snapshot();
  ZeroRegion r(4'096);
  const mem::AllocTally d = mem::delta(t0);
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.bytes, 4'096u);
  EXPECT_EQ(r.size(), 4'096u);
}

// Every operation src/ applies to a LazyDeque, in a seeded random order,
// against a std::deque, with clear() and moves in between.
TEST(LazyDeque, MatchesStdDeque) {
  using Item = std::pair<int, std::string>;
  LazyDeque<Item> lazy;
  std::deque<Item> ref;
  EXPECT_TRUE(lazy.empty());
  EXPECT_EQ(lazy.size(), 0u);
  EXPECT_TRUE(lazy.begin() == lazy.end());
  lazy.clear();
  EXPECT_TRUE(lazy.empty());

  const auto same = [&] {
    if (lazy.size() != ref.size() || lazy.empty() != ref.empty()) return false;
    if (!ref.empty() &&
        (lazy.front() != ref.front() || lazy.back() != ref.back()))
      return false;
    return std::equal(lazy.begin(), lazy.end(), ref.begin(), ref.end());
  };

  Rng rng(21);
  for (int step = 0; step < 20'000; ++step) {
    const int v = static_cast<int>(rng.below(1'000));
    Item item{v, std::to_string(v)};
    switch (rng.below(16)) {
      case 0: case 1: case 2:
        lazy.push_back(item);
        ref.push_back(item);
        break;
      case 3: case 4: case 5: {
        Item copy = item;
        lazy.push_back(std::move(item));
        ref.push_back(std::move(copy));
        break;
      }
      case 6: case 7: case 8:
        EXPECT_EQ(lazy.emplace_back(v, std::to_string(v)),
                  ref.emplace_back(v, std::to_string(v)));
        break;
      case 9: case 10: case 11:
        if (!ref.empty()) {
          lazy.pop_front();
          ref.pop_front();
        }
        break;
      case 12:
        if (!ref.empty()) {
          lazy.pop_back();
          ref.pop_back();
        }
        break;
      case 13:
        if (!ref.empty()) {
          lazy.front().first += 1;
          lazy.back().second += "x";
          ref.front().first += 1;
          ref.back().second += "x";
        }
        break;
      case 14:
        if (rng.below(8) == 0) {
          lazy.clear();
          ref.clear();
        }
        break;
      case 15: {
        // Moved out and cleared, as the Write-Record pending flush does.
        LazyDeque<Item> moved = std::move(lazy);
        lazy.clear();
        std::deque<Item> ref_moved = std::move(ref);
        ref.clear();
        EXPECT_TRUE(lazy.empty());
        EXPECT_TRUE(std::equal(moved.begin(), moved.end(), ref_moved.begin(),
                               ref_moved.end()));
        lazy = std::move(moved);
        ref = std::move(ref_moved);
        break;
      }
    }
    ASSERT_TRUE(same()) << "step " << step;
  }
}

TEST(WireCodec, RoundtripAllWidths) {
  Bytes buf;
  WireWriter w(buf);
  w.u8be(0xAB);
  w.u16be(0x1234);
  w.u32be(0xDEADBEEF);
  w.u64be(0x0123456789ABCDEFull);
  const Bytes tail = {1, 2, 3};
  w.bytes(ConstByteSpan{tail});

  WireReader r(ConstByteSpan{buf});
  EXPECT_EQ(r.u8be(), 0xAB);
  EXPECT_EQ(r.u16be(), 0x1234);
  EXPECT_EQ(r.u32be(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64be(), 0x0123456789ABCDEFull);
  auto rest = r.rest();
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), rest.begin()));
  EXPECT_TRUE(r.ok());
}

TEST(WireCodec, UnderflowSetsError) {
  const Bytes two = {1, 2};
  WireReader r(ConstByteSpan{two});
  EXPECT_EQ(r.u32be(), 0u);
  EXPECT_FALSE(r.ok());
  // Further reads stay zero and flagged.
  EXPECT_EQ(r.u8be(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(WireCodec, BigEndianOnTheWire) {
  Bytes buf;
  WireWriter w(buf);
  w.u32be(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i)
    if (a2.next_u64() != c.next_u64()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const i64 v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(99);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.05) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.05, 0.005);
}

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.percentile(100), 100.0, 0.01);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(SizeSweep, PowersOfTwoInclusive) {
  const auto v = size_sweep(1, 1024);
  ASSERT_EQ(v.size(), 11u);
  EXPECT_EQ(v.front(), 1u);
  EXPECT_EQ(v.back(), 1024u);
}

TEST(MemLedger, ChargeAndRefund) {
  auto ledger = std::make_shared<MemLedger>();
  {
    MemCharge c(ledger, "a", 100);
    MemCharge d(ledger, "b", 50);
    EXPECT_EQ(ledger->total(), 150);
    EXPECT_EQ(ledger->category("a"), 100);
    c.resize(200);
    EXPECT_EQ(ledger->total(), 250);
  }
  EXPECT_EQ(ledger->total(), 0);
}

TEST(MemLedger, MoveTransfersOwnership) {
  auto ledger = std::make_shared<MemLedger>();
  MemCharge a(ledger, "x", 10);
  MemCharge b = std::move(a);
  EXPECT_EQ(ledger->total(), 10);
  a = MemCharge(ledger, "x", 5);  // old (moved-from) slot reused
  EXPECT_EQ(ledger->total(), 15);
}

TEST(MemLedger, ChargeOutlivesLedgerHandleSafely) {
  MemCharge survivor;
  {
    auto ledger = std::make_shared<MemLedger>();
    survivor = MemCharge(ledger, "late", 42);
    EXPECT_EQ(ledger->total(), 42);
  }
  // The ledger is kept alive by the charge; releasing must not crash.
  survivor = MemCharge();
}

TEST(Status, CodesAndMessages) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err(Errc::kCrcError, "boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::kCrcError);
  EXPECT_EQ(err.to_string(), "CRC_ERROR: boom");
}

TEST(ResultT, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad(Errc::kNotFound, "nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(PatternFill, DeterministicAndSeedSensitive) {
  const Bytes a = make_pattern(64, 1);
  const Bytes b = make_pattern(64, 1);
  const Bytes c = make_pattern(64, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace dgiwarp
