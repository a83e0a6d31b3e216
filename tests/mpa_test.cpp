// MPA framing tests: marker placement, CRC validation, arbitrary stream
// re-segmentation (property: any chunking of the byte stream yields the
// same ULPDU sequence) and the MULPDU arithmetic.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mpa/mpa.hpp"

namespace dgiwarp {
namespace {

using mpa::MpaConfig;
using mpa::MpaReceiver;
using mpa::MpaSender;

Bytes frame_one(MpaSender& tx, ConstByteSpan ulpdu) {
  Bytes stream;
  tx.frame(stream, ulpdu);
  return stream;
}

Bytes frame_stream(MpaSender& tx, const std::vector<Bytes>& ulpdus) {
  Bytes stream;
  for (const auto& u : ulpdus) tx.frame(stream, ConstByteSpan{u});
  return stream;
}

TEST(Mpa, SingleFpduRoundtrip) {
  MpaSender tx;
  MpaReceiver rx;
  std::vector<Bytes> got;
  rx.on_ulpdu(
      [&](ConstByteSpan u, bool) { got.emplace_back(u.begin(), u.end()); });
  const Bytes ulpdu = make_pattern(100, 1);
  ASSERT_TRUE(
      rx.consume(ConstByteSpan{frame_one(tx, ConstByteSpan{ulpdu})}).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], ulpdu);
}

TEST(Mpa, MarkersAppearEvery512StreamBytes) {
  MpaSender tx;
  // A large ULPDU spans multiple marker positions.
  const Bytes ulpdu = make_pattern(2000, 2);
  const Bytes stream = frame_one(tx, ConstByteSpan{ulpdu});
  // Stream grows by one marker per 512-byte boundary crossed.
  const std::size_t raw = 2 + 2000 + 2 /*pad*/ + 4;  // len+data+pad+crc
  const std::size_t markers = (stream.size() - raw) / 4;
  EXPECT_GE(markers, 3u);
  EXPECT_LE(markers, 4u);
}

TEST(Mpa, EmptyUlpduIsLegal) {
  MpaSender tx;
  MpaReceiver rx;
  int count = 0;
  rx.on_ulpdu([&](ConstByteSpan u, bool) {
    EXPECT_TRUE(u.empty());
    ++count;
  });
  ASSERT_TRUE(rx.consume(ConstByteSpan{frame_one(tx, {})}).ok());
  EXPECT_EQ(count, 1);
}

TEST(Mpa, CrcCorruptionPoisonsStream) {
  MpaSender tx;
  MpaReceiver rx;
  rx.on_ulpdu([](ConstByteSpan, bool) {});
  Bytes stream = frame_one(tx, ConstByteSpan{make_pattern(64, 3)});
  stream[10] ^= 0xFF;
  EXPECT_EQ(rx.consume(ConstByteSpan{stream}).code(), Errc::kCrcError);
  EXPECT_TRUE(rx.poisoned());
  EXPECT_EQ(rx.crc_failures(), 1u);
  // Poisoned streams reject all further input (fatal per spec).
  MpaSender tx2;
  EXPECT_FALSE(rx.consume(ConstByteSpan{frame_one(tx2, {})}).ok());
}

TEST(Mpa, NoMarkersMode) {
  MpaConfig cfg;
  cfg.use_markers = false;
  MpaSender tx(cfg);
  MpaReceiver rx(cfg);
  std::vector<Bytes> got;
  rx.on_ulpdu(
      [&](ConstByteSpan u, bool) { got.emplace_back(u.begin(), u.end()); });
  const Bytes big = make_pattern(3000, 4);
  const Bytes stream = frame_one(tx, ConstByteSpan{big});
  EXPECT_EQ(stream.size(), 2u + 3000 + 2 + 4);  // no marker bytes
  ASSERT_TRUE(rx.consume(ConstByteSpan{stream}).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], big);
}

TEST(Mpa, NoCrcMode) {
  MpaConfig cfg;
  cfg.use_crc = false;
  MpaSender tx(cfg);
  MpaReceiver rx(cfg);
  int count = 0;
  rx.on_ulpdu([&](ConstByteSpan, bool) { ++count; });
  ASSERT_TRUE(rx.consume(ConstByteSpan{frame_one(
                              tx, ConstByteSpan{make_pattern(64, 5)})})
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST(Mpa, MaxUlpduFitsStreamBudget) {
  for (const bool markers : {true, false}) {
    MpaConfig cfg;
    cfg.use_markers = markers;
    const std::size_t budget = 1452;  // one TCP MSS
    const std::size_t mulpdu = mpa::max_ulpdu_for(budget, cfg);
    ASSERT_GT(mulpdu, 1300u);
    // Framing a MULPDU-sized ULPDU never exceeds the budget, at any
    // starting stream position.
    for (u64 pos : {u64{0}, u64{100}, u64{508}, u64{511}, u64{1000}}) {
      EXPECT_LE(mpa::framed_size(mulpdu, pos, cfg), budget)
          << "markers=" << markers << " pos=" << pos;
    }
  }
}

// Property: any re-chunking of the framed stream (as TCP may deliver it)
// reproduces the identical ULPDU sequence.
class MpaChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MpaChunking, ResegmentationIsTransparent) {
  const std::size_t chunk = GetParam();
  MpaSender tx;
  std::vector<Bytes> sent;
  Rng rng(chunk);
  for (int i = 0; i < 20; ++i)
    sent.push_back(make_pattern(1 + rng.below(1500), static_cast<u32>(i)));
  const Bytes stream = frame_stream(tx, sent);

  MpaReceiver rx;
  std::vector<Bytes> got;
  rx.on_ulpdu(
      [&](ConstByteSpan u, bool) { got.emplace_back(u.begin(), u.end()); });
  for (std::size_t off = 0; off < stream.size(); off += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - off);
    ASSERT_TRUE(rx.consume(ConstByteSpan{stream}.subspan(off, n)).ok());
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], sent[i]);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, MpaChunking,
                         ::testing::Values(1, 2, 3, 7, 64, 511, 512, 513,
                                           1460, 8192));

// Property: framed size bookkeeping exactly predicts the sender's output.
class MpaFramedSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MpaFramedSize, PredictionMatchesActual) {
  const std::size_t len = GetParam();
  MpaSender tx;
  // Advance the stream to a quasi-random position first.
  (void)frame_one(tx, ConstByteSpan{make_pattern(137, 9)});
  const u64 pos = tx.stream_position();
  const Bytes ulpdu = make_pattern(len, 1);
  const std::size_t predicted = mpa::framed_size(len, pos, MpaConfig{});
  EXPECT_EQ(frame_one(tx, ConstByteSpan{ulpdu}).size(), predicted);
}

INSTANTIATE_TEST_SUITE_P(UlpduSizes, MpaFramedSize,
                         ::testing::Values(0, 1, 2, 3, 100, 511, 512, 513,
                                           1432, 4096, 65536));

}  // namespace
}  // namespace dgiwarp
