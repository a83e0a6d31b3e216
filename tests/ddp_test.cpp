// DDP layer tests: segment headers, CRC validation, STag table access
// control, segmentation planning (properties), untagged reassembly and
// tagged placement.
#include <gtest/gtest.h>

#include "ddp/header.hpp"
#include "ddp/placement.hpp"
#include "ddp/reassembly.hpp"
#include "ddp/segmenter.hpp"
#include "ddp/stag.hpp"

namespace dgiwarp {
namespace {

using namespace ddp;

TEST(DdpHeader, RoundtripAllFields) {
  SegmentHeader h;
  h.set_tagged(true);
  h.set_last(true);
  h.set_opcode(0x8);
  h.queue = 2;
  h.stag = 0xABCD;
  h.to = 0x123456789ull;
  h.msn = 42;
  h.mo = 65'536;
  h.msg_len = 1'000'000;
  h.src_qpn = 77;

  Bytes wire;
  h.serialize(wire);
  EXPECT_EQ(wire.size(), kHeaderBytes);
  WireReader r(ConstByteSpan{wire});
  auto parsed = SegmentHeader::parse(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->tagged());
  EXPECT_TRUE(parsed->last());
  EXPECT_EQ(parsed->opcode(), 0x8);
  EXPECT_EQ(parsed->stag, 0xABCDu);
  EXPECT_EQ(parsed->to, 0x123456789ull);
  EXPECT_EQ(parsed->msn, 42u);
  EXPECT_EQ(parsed->mo, 65'536u);
  EXPECT_EQ(parsed->msg_len, 1'000'000u);
  EXPECT_EQ(parsed->src_qpn, 77u);
}

TEST(DdpSegment, BuildParseWithCrc) {
  SegmentHeader h;
  h.set_opcode(3);
  h.set_last(true);
  h.msg_len = 500;
  const Bytes payload = make_pattern(500, 1);
  const Bytes wire = build_segment(h, ConstByteSpan{payload}, true);
  EXPECT_EQ(wire.size(), kHeaderBytes + 500 + kCrcBytes);
  auto parsed = parse_segment(ConstByteSpan{wire}, true);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         parsed->payload.begin()));
}

TEST(DdpSegment, CrcCatchesCorruption) {
  SegmentHeader h;
  h.set_opcode(3);
  const Bytes payload = make_pattern(100, 2);
  Bytes wire = build_segment(h, ConstByteSpan{payload}, true);
  // Corrupt header and payload bytes.
  for (std::size_t at : {std::size_t{0}, kHeaderBytes + 5}) {
    wire[at] ^= 0x01;
    EXPECT_EQ(parse_segment(ConstByteSpan{wire}, true).code(),
              Errc::kCrcError);
    wire[at] ^= 0x01;
  }
}

TEST(DdpSegment, TruncatedSegmentRejected) {
  const Bytes tiny(kHeaderBytes - 1, 0);
  EXPECT_EQ(parse_segment(ConstByteSpan{tiny}, false).code(),
            Errc::kProtocolError);
}

TEST(DdpSegment, RejectsOffsetPayloadExceedingMessageLength) {
  // mo + payload must fit in msg_len; a lying header would otherwise index
  // past the reassembly sink downstream. Only reachable with CRC off.
  SegmentHeader h;
  h.set_opcode(0);
  h.msg_len = 100;
  h.mo = 90;
  const Bytes payload = make_pattern(20, 3);  // 90 + 20 > 100
  const Bytes wire = build_segment(h, ConstByteSpan{payload}, false);
  EXPECT_EQ(parse_segment(ConstByteSpan{wire}, false).code(),
            Errc::kProtocolError);

  h.mo = 80;  // 80 + 20 == 100: exactly full is fine
  const Bytes ok = build_segment(h, ConstByteSpan{payload}, false);
  EXPECT_TRUE(parse_segment(ConstByteSpan{ok}, false).ok());
}

TEST(DdpSegment, RejectsBadOpcodeAndQueue) {
  SegmentHeader h;
  h.msg_len = 10;
  const Bytes payload = make_pattern(10, 4);

  h.set_opcode(7);  // 0x7 is reserved in RFC 5040
  Bytes wire = build_segment(h, ConstByteSpan{payload}, false);
  EXPECT_EQ(parse_segment(ConstByteSpan{wire}, false).code(),
            Errc::kProtocolError);

  h.set_opcode(0);  // valid opcode, but untagged queue out of range
  h.queue = 9;
  wire = build_segment(h, ConstByteSpan{payload}, false);
  EXPECT_EQ(parse_segment(ConstByteSpan{wire}, false).code(),
            Errc::kProtocolError);

  h.queue = 0;
  wire = build_segment(h, ConstByteSpan{payload}, false);
  EXPECT_TRUE(parse_segment(ConstByteSpan{wire}, false).ok());
}

TEST(StagTable, RegisterCheckInvalidate) {
  StagTable table;
  Bytes region(1000, 0);
  const auto info =
      table.register_region(ByteSpan{region}, kRemoteWrite | kLocalWrite);
  ASSERT_TRUE(table.contains(info.stag));

  auto span = table.check(info.stag, 100, 200, kRemoteWrite);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->size(), 200u);
  EXPECT_EQ(span->data(), region.data() + 100);

  ASSERT_TRUE(table.invalidate(info.stag).ok());
  EXPECT_EQ(table.check(info.stag, 0, 1, kRemoteWrite).code(),
            Errc::kAccessDenied);
  EXPECT_EQ(table.invalidate(info.stag).code(), Errc::kNotFound);
}

TEST(StagTable, BoundsEnforced) {
  StagTable table;
  Bytes region(1000, 0);
  const auto info = table.register_region(ByteSpan{region}, kRemoteWrite);
  EXPECT_TRUE(table.check(info.stag, 0, 1000, kRemoteWrite).ok());
  EXPECT_EQ(table.check(info.stag, 1, 1000, kRemoteWrite).code(),
            Errc::kOutOfRange);
  EXPECT_EQ(table.check(info.stag, 1001, 0, kRemoteWrite).code(),
            Errc::kOutOfRange);
}

TEST(StagTable, AccessRightsEnforced) {
  StagTable table;
  Bytes region(100, 0);
  const auto wr_only = table.register_region(ByteSpan{region}, kRemoteWrite);
  EXPECT_EQ(table.check(wr_only.stag, 0, 10, kRemoteRead).code(),
            Errc::kAccessDenied);
  EXPECT_TRUE(table.check(wr_only.stag, 0, 10, kRemoteWrite).ok());
}

TEST(StagTable, DistinctStagsPerRegistration) {
  StagTable table;
  Bytes r1(10, 0), r2(10, 0);
  const auto a = table.register_region(ByteSpan{r1}, kRemoteWrite);
  const auto b = table.register_region(ByteSpan{r2}, kRemoteWrite);
  EXPECT_NE(a.stag, b.stag);
}

TEST(Placement, TaggedWriteAndRead) {
  StagTable table;
  Bytes region(256, 0);
  const auto mr = table.register_region(
      ByteSpan{region}, kRemoteWrite | kRemoteRead);
  const Bytes data = make_pattern(64, 5);
  auto placed = place_tagged(table, mr.stag, 100, ConstByteSpan{data});
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed->len, 64u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), region.begin() + 100));

  auto read = read_tagged(table, mr.stag, 100, 64);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), read->begin()));
}

TEST(Placement, RejectsOutOfBoundsAndBadStag) {
  StagTable table;
  Bytes region(64, 0);
  const auto mr = table.register_region(ByteSpan{region}, kRemoteWrite);
  const Bytes data(32, 1);
  EXPECT_EQ(place_tagged(table, mr.stag, 40, ConstByteSpan{data}).code(),
            Errc::kOutOfRange);
  EXPECT_EQ(place_tagged(table, 0xDEAD, 0, ConstByteSpan{data}).code(),
            Errc::kAccessDenied);
}

// Segmentation properties: the plan covers the message exactly once, in
// order, with only the final segment flagged last.
class SegmentPlan : public ::testing::TestWithParam<
                        std::pair<std::size_t, std::size_t>> {};

TEST_P(SegmentPlan, ExactCoverage) {
  const auto [msg, max] = GetParam();
  const auto plan = plan_segments(msg, max);
  ASSERT_FALSE(plan.empty());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].offset, cursor);
    EXPECT_LE(plan[i].length, max);
    EXPECT_EQ(plan[i].last, i + 1 == plan.size());
    if (!plan[i].last) {
      EXPECT_EQ(plan[i].length, max);  // greedy fill
    }
    cursor += plan[i].length;
  }
  EXPECT_EQ(cursor, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegmentPlan,
    ::testing::Values(std::pair<std::size_t, std::size_t>{0, 100},
                      std::pair<std::size_t, std::size_t>{1, 100},
                      std::pair<std::size_t, std::size_t>{100, 100},
                      std::pair<std::size_t, std::size_t>{101, 100},
                      std::pair<std::size_t, std::size_t>{65'471, 65'471},
                      std::pair<std::size_t, std::size_t>{1'048'576, 65'471},
                      std::pair<std::size_t, std::size_t>{999'999, 1'000}));

TEST(Reassembler, InOrderCompletion) {
  UntaggedReassembler r;
  Bytes sink(100, 0);
  const UntaggedKey key{1, 2, 3, 4};
  ASSERT_TRUE(r.begin(key, 100, ByteSpan{sink}, 42, 1000).ok());
  const Bytes part1 = make_pattern(60, 1);
  const Bytes part2 = make_pattern(40, 2);
  auto o1 = r.offer(key, 0, ConstByteSpan{part1});
  ASSERT_TRUE(o1.ok());
  EXPECT_FALSE(o1->completed);
  auto o2 = r.offer(key, 60, ConstByteSpan{part2});
  ASSERT_TRUE(o2.ok());
  EXPECT_TRUE(o2->completed);
  EXPECT_EQ(*r.complete(key), 42u);
  EXPECT_TRUE(std::equal(part1.begin(), part1.end(), sink.begin()));
  EXPECT_TRUE(std::equal(part2.begin(), part2.end(), sink.begin() + 60));
}

TEST(Reassembler, OutOfOrderAndDuplicates) {
  UntaggedReassembler r;
  Bytes sink(90, 0);
  const UntaggedKey key{1, 2, 3, 4};
  ASSERT_TRUE(r.begin(key, 90, ByteSpan{sink}, 7, 1000).ok());
  const Bytes c = make_pattern(30, 3);
  EXPECT_FALSE(r.offer(key, 60, ConstByteSpan{c})->completed);
  EXPECT_FALSE(r.offer(key, 0, ConstByteSpan{c})->completed);
  // Duplicate of the first chunk adds nothing.
  auto dup = r.offer(key, 60, ConstByteSpan{c});
  EXPECT_EQ(dup->placed, 0u);
  auto last = r.offer(key, 30, ConstByteSpan{c});
  EXPECT_TRUE(last->completed);
}

TEST(Reassembler, RejectsBeyondMessageAndSmallSink) {
  UntaggedReassembler r;
  Bytes sink(10, 0);
  const UntaggedKey key{1, 1, 1, 1};
  EXPECT_EQ(r.begin(key, 20, ByteSpan{sink}, 1, 100).code(),
            Errc::kInvalidArgument);
  Bytes sink2(20, 0);
  ASSERT_TRUE(r.begin(key, 20, ByteSpan{sink2}, 1, 100).ok());
  const Bytes chunk(15, 0);
  EXPECT_EQ(r.offer(key, 10, ConstByteSpan{chunk}).code(), Errc::kOutOfRange);
}

TEST(Reassembler, ExpiryReturnsCookies) {
  UntaggedReassembler r;
  Bytes s1(10, 0), s2(10, 0);
  ASSERT_TRUE(r.begin({1, 1, 1, 1}, 10, ByteSpan{s1}, 100, 500).ok());
  ASSERT_TRUE(r.begin({1, 1, 1, 2}, 10, ByteSpan{s2}, 200, 1500).ok());
  const Bytes half(5, 0);
  (void)r.offer({1, 1, 1, 1}, 0, ConstByteSpan{half});
  auto expired = r.expire_before(1000);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].cookie, 100u);
  EXPECT_EQ(expired[0].received, 5u);
  EXPECT_EQ(r.inflight(), 1u);
}

TEST(Reassembler, OverlappingOffersCountBytesOnce) {
  UntaggedReassembler r;
  Bytes sink(100, 0);
  const UntaggedKey key{9, 9, 9, 9};
  ASSERT_TRUE(r.begin(key, 100, ByteSpan{sink}, 1, 1000).ok());
  const Bytes a(60, 1);
  const Bytes b(60, 2);
  EXPECT_EQ(r.offer(key, 0, ConstByteSpan{a})->placed, 60u);
  auto o = r.offer(key, 40, ConstByteSpan{b});  // overlaps [40,60)
  EXPECT_EQ(o->placed, 40u);
  EXPECT_TRUE(o->completed);
}

TEST(Segmenter, UdMaxPayloadArithmetic) {
  EXPECT_EQ(ud_max_segment_payload(65'507),
            65'507 - kHeaderBytes - kCrcBytes);
}

}  // namespace
}  // namespace dgiwarp
