// RDMAP layer tests: opcode semantics, the ValidityMap, the Write-Record
// log (the paper's core mechanism) and control-message codecs.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rdmap/message.hpp"
#include "rdmap/terminate.hpp"
#include "rdmap/write_record.hpp"

namespace dgiwarp {
namespace {

using namespace rdmap;

TEST(Opcodes, TaggedModelMapping) {
  EXPECT_TRUE(is_tagged(Opcode::kWrite));
  EXPECT_TRUE(is_tagged(Opcode::kReadResponse));
  EXPECT_TRUE(is_tagged(Opcode::kWriteRecord));
  EXPECT_FALSE(is_tagged(Opcode::kSend));
  EXPECT_FALSE(is_tagged(Opcode::kSendSE));
  EXPECT_FALSE(is_tagged(Opcode::kReadRequest));
  EXPECT_FALSE(is_tagged(Opcode::kTerminate));
}

TEST(Opcodes, UntaggedQueueAssignment) {
  EXPECT_EQ(untagged_queue(Opcode::kSend), ddp::Queue::kSend);
  EXPECT_EQ(untagged_queue(Opcode::kReadRequest), ddp::Queue::kReadRequest);
  EXPECT_EQ(untagged_queue(Opcode::kTerminate), ddp::Queue::kTerminate);
}

TEST(Opcodes, ParseRejectsUnknown) {
  EXPECT_TRUE(parse_opcode(0x0).ok());
  EXPECT_TRUE(parse_opcode(0x8).ok());
  EXPECT_FALSE(parse_opcode(0x7).ok());
  EXPECT_FALSE(parse_opcode(0xF).ok());
}

TEST(ValidityMap, SingleAndCoalescedRanges) {
  ValidityMap m;
  m.add(0, 100);
  EXPECT_EQ(m.valid_bytes(), 100u);
  m.add(100, 50);  // adjacent -> coalesce
  ASSERT_EQ(m.ranges().size(), 1u);
  EXPECT_EQ(m.ranges()[0].length, 150u);
  m.add(300, 10);  // disjoint
  EXPECT_EQ(m.ranges().size(), 2u);
  EXPECT_EQ(m.valid_bytes(), 160u);
}

TEST(ValidityMap, OverlapsDoNotDoubleCount) {
  ValidityMap m;
  m.add(10, 100);
  m.add(50, 100);  // overlaps [50,110)
  EXPECT_EQ(m.valid_bytes(), 140u);
  ASSERT_EQ(m.ranges().size(), 1u);
  EXPECT_EQ(m.ranges()[0].offset, 10u);
}

TEST(ValidityMap, BridgingGapMergesThreeRanges) {
  ValidityMap m;
  m.add(0, 10);
  m.add(20, 10);
  m.add(40, 10);
  EXPECT_EQ(m.ranges().size(), 3u);
  m.add(5, 40);  // bridges all three
  ASSERT_EQ(m.ranges().size(), 1u);
  EXPECT_EQ(m.valid_bytes(), 50u);
}

TEST(ValidityMap, CompletenessAndCoverage) {
  ValidityMap m;
  m.add(0, 60);
  EXPECT_FALSE(m.complete(100));
  EXPECT_DOUBLE_EQ(m.coverage(100), 0.6);
  m.add(60, 40);
  EXPECT_TRUE(m.complete(100));
  EXPECT_DOUBLE_EQ(m.coverage(100), 1.0);
}

// Property sweep: arbitrary permutations of chunk arrival produce the same
// final map.
class ValidityPermutation : public ::testing::TestWithParam<u32> {};

TEST_P(ValidityPermutation, OrderIndependent) {
  const u32 seed = GetParam();
  std::vector<std::pair<u32, u32>> chunks;
  for (u32 i = 0; i < 16; ++i) chunks.push_back({i * 100, 100});
  Rng rng(seed);
  for (std::size_t i = chunks.size(); i > 1; --i)
    std::swap(chunks[i - 1], chunks[rng.below(i)]);
  ValidityMap m;
  for (auto [off, len] : chunks) m.add(off, len);
  ASSERT_EQ(m.ranges().size(), 1u);
  EXPECT_TRUE(m.complete(1600));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidityPermutation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(WriteRecordLog, SingleChunkMessageCompletesImmediately) {
  telemetry::Registry reg;
  WriteRecordLog log(reg);
  auto res = log.record_chunk(/*src_ip=*/1, /*src_qpn=*/2, /*msg_id=*/10,
                              /*stag=*/5, /*to=*/200, /*mo=*/0, /*len=*/100,
                              /*msg_len=*/100, /*last=*/true,
                              /*deadline=*/1000);
  EXPECT_TRUE(res.message_completed);
  auto c = log.take_completed();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->stag, 5u);
  EXPECT_EQ(c->base_to, 200u);
  EXPECT_TRUE(c->validity.complete(100));
  EXPECT_TRUE(c->last_seen);
}

TEST(WriteRecordLog, MultiChunkCompletesOnLast) {
  telemetry::Registry reg;
  WriteRecordLog log(reg);
  EXPECT_FALSE(log.record_chunk(1, 2, 10, 5, 0, 0, 100, 300, false, 1000)
                   .message_completed);
  EXPECT_FALSE(log.record_chunk(1, 2, 10, 5, 100, 100, 100, 300, false, 1000)
                   .message_completed);
  auto res = log.record_chunk(1, 2, 10, 5, 200, 200, 100, 300, true, 1000);
  EXPECT_TRUE(res.message_completed);
  auto c = log.take_completed();
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->validity.complete(300));
}

TEST(WriteRecordLog, PartialValidityOnLoss) {
  telemetry::Registry reg;
  WriteRecordLog log(reg);
  // Middle chunk never arrives.
  (void)log.record_chunk(1, 2, 11, 5, 0, 0, 100, 300, false, 1000);
  auto res = log.record_chunk(1, 2, 11, 5, 200, 200, 100, 300, true, 1000);
  EXPECT_TRUE(res.message_completed);
  auto c = log.take_completed();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->validity.valid_bytes(), 200u);
  EXPECT_EQ(c->validity.ranges().size(), 2u);
  EXPECT_FALSE(c->validity.complete(300));
}

TEST(WriteRecordLog, LostFinalSegmentExpiresSilently) {
  telemetry::Registry reg;
  WriteRecordLog log(reg);
  (void)log.record_chunk(1, 2, 12, 5, 0, 0, 100, 200, false, 1000);
  EXPECT_EQ(log.inflight(), 1u);
  auto dead = log.expire_before(2000);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_FALSE(dead[0].last_seen);  // "loss of the final packet = loss of
                                    //  the entire message"
  EXPECT_EQ(log.inflight(), 0u);
  EXPECT_FALSE(log.take_completed().ok());
}

TEST(WriteRecordLog, LateChunksAfterCompletionAreCounted) {
  telemetry::Registry reg;
  WriteRecordLog log(reg);
  (void)log.record_chunk(1, 2, 13, 5, 0, 0, 50, 50, true, 1000);
  (void)log.take_completed();
  auto res = log.record_chunk(1, 2, 13, 5, 0, 0, 50, 50, false, 1000);
  EXPECT_TRUE(res.late);
  EXPECT_EQ(reg.counter_value("rdmap.write_record.late_chunks"), 1u);
}

TEST(WriteRecordLog, ConcurrentMessagesFromDifferentSources) {
  telemetry::Registry reg;
  WriteRecordLog log(reg);
  (void)log.record_chunk(1, 2, 20, 5, 0, 0, 10, 20, false, 1000);
  (void)log.record_chunk(9, 9, 20, 6, 0, 0, 10, 20, false, 1000);  // other src
  EXPECT_EQ(log.inflight(), 2u);
  EXPECT_TRUE(
      log.record_chunk(1, 2, 20, 5, 10, 10, 10, 20, true, 1000)
          .message_completed);
  auto c = log.take_completed();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->stag, 5u);
  EXPECT_EQ(log.inflight(), 1u);  // the other source's message remains
}

TEST(ReadRequestPayload, Roundtrip) {
  ReadRequestPayload p;
  p.sink_stag = 1;
  p.sink_to = 2;
  p.src_stag = 3;
  p.src_to = 4;
  p.length = 5;
  const Bytes wire = p.serialize();
  auto parsed = ReadRequestPayload::parse(ConstByteSpan{wire});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->src_stag, 3u);
  EXPECT_EQ(parsed->length, 5u);
  EXPECT_FALSE(ReadRequestPayload::parse(
                   ConstByteSpan{wire}.subspan(0, 4)).ok());
}

TEST(Terminate, RoundtripAndValidation) {
  TerminateMessage t;
  t.layer = TermLayer::kDdp;
  t.error_code = static_cast<u8>(TermError::kInvalidStag);
  t.context = 0xBEEF;
  const Bytes wire = t.serialize();
  auto parsed = TerminateMessage::parse(ConstByteSpan{wire});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->layer, TermLayer::kDdp);
  EXPECT_EQ(parsed->context, 0xBEEFu);

  Bytes bad = wire;
  bad[0] = 9;  // invalid layer
  EXPECT_FALSE(TerminateMessage::parse(ConstByteSpan{bad}).ok());
}

TEST(Terminate, ExhaustiveRoundtripAllLayersAndCodes) {
  // Every (layer, error code, context) combination the stack can emit must
  // survive serialize -> parse with all fields intact.
  constexpr TermLayer kLayers[] = {TermLayer::kRdmap, TermLayer::kDdp,
                                   TermLayer::kLlp};
  constexpr TermError kCodes[] = {
      TermError::kInvalidStag,   TermError::kBaseBoundsViolation,
      TermError::kAccessViolation, TermError::kInvalidOpcode,
      TermError::kCatastrophic,  TermError::kBufferTooSmall};
  constexpr u32 kContexts[] = {0, 1, 0xBEEF, 0xFFFF'FFFF};
  for (TermLayer layer : kLayers) {
    for (TermError code : kCodes) {
      for (u32 ctx : kContexts) {
        TerminateMessage t;
        t.layer = layer;
        t.error_code = static_cast<u8>(code);
        t.context = ctx;
        const Bytes wire = t.serialize();
        ASSERT_EQ(wire.size(), 8u);
        auto parsed = TerminateMessage::parse(ConstByteSpan{wire});
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed->layer, layer);
        EXPECT_EQ(parsed->error_code, static_cast<u8>(code));
        EXPECT_EQ(parsed->context, ctx);
      }
    }
  }
}

TEST(Terminate, MalformedMessagesRejectedCleanly) {
  TerminateMessage good;
  good.layer = TermLayer::kLlp;
  good.error_code = static_cast<u8>(TermError::kCatastrophic);
  good.context = 7;
  const Bytes wire = good.serialize();

  // Every strict prefix is too short.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    auto r = TerminateMessage::parse(ConstByteSpan{wire}.subspan(0, n));
    EXPECT_EQ(r.code(), Errc::kProtocolError) << "prefix " << n;
  }
  // Every invalid layer value.
  for (unsigned layer = 3; layer <= 0xFF; ++layer) {
    Bytes bad = wire;
    bad[0] = static_cast<u8>(layer);
    EXPECT_FALSE(TerminateMessage::parse(ConstByteSpan{bad}).ok());
  }
  // Error code 0 and everything past kBufferTooSmall is invalid.
  for (unsigned code = 0; code <= 0xFF; ++code) {
    Bytes bad = wire;
    bad[1] = static_cast<u8>(code);
    const bool valid = code >= 1 && code <= 6;
    EXPECT_EQ(TerminateMessage::parse(ConstByteSpan{bad}).ok(), valid)
        << "code " << code;
  }
}

}  // namespace
}  // namespace dgiwarp
