// net/wire.h — frame framing/checksum behaviour and payload codec round
// trips. The wire carries raw IEEE doubles, so every round trip here is
// asserted bit-identical, the same contract the snapshot store keeps.
#include "net/wire.h"

#include <vector>

#include <gtest/gtest.h>

namespace staq::net {
namespace {

Frame MustParse(const std::vector<uint8_t>& wire) {
  uint32_t body_len = 0;
  uint64_t checksum = 0;
  auto header_st = ParseFrameHeader(wire.data(), &body_len, &checksum);
  EXPECT_TRUE(header_st.ok()) << header_st;
  EXPECT_EQ(kFrameHeaderSize + body_len, wire.size());
  auto frame = ParseFrameBody(wire.data() + kFrameHeaderSize, body_len,
                              checksum);
  EXPECT_TRUE(frame.ok()) << frame.status();
  return std::move(frame).value();
}

TEST(FrameTest, RoundTripsTypeIdAndPayload) {
  std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<uint8_t> wire;
  EncodeFrame(MsgType::kQuery, 0x123456789ABCull, payload, &wire);
  Frame frame = MustParse(wire);
  EXPECT_EQ(frame.type, MsgType::kQuery);
  EXPECT_EQ(frame.request_id, 0x123456789ABCull);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameTest, EmptyPayloadIsAValidFrame) {
  std::vector<uint8_t> wire;
  EncodeFrame(MsgType::kInfo, 7, {}, &wire);
  Frame frame = MustParse(wire);
  EXPECT_EQ(frame.type, MsgType::kInfo);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, HeaderRejectsBadMagicAndBadLength) {
  std::vector<uint8_t> wire;
  EncodeFrame(MsgType::kInfo, 1, {}, &wire);
  uint32_t body_len = 0;
  uint64_t checksum = 0;

  std::vector<uint8_t> bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(ParseFrameHeader(bad_magic.data(), &body_len, &checksum).code(),
            util::StatusCode::kInvalidArgument);

  // body_len beyond the 64 MB bound is corruption, not an allocation hint.
  std::vector<uint8_t> huge = wire;
  huge[4] = 0xFF;
  huge[5] = 0xFF;
  huge[6] = 0xFF;
  huge[7] = 0x7F;
  EXPECT_EQ(ParseFrameHeader(huge.data(), &body_len, &checksum).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(FrameTest, BodyChecksumMismatchIsDataLoss) {
  std::vector<uint8_t> wire;
  EncodeFrame(MsgType::kQuery, 3, {1, 2, 3}, &wire);
  uint32_t body_len = 0;
  uint64_t checksum = 0;
  ASSERT_TRUE(ParseFrameHeader(wire.data(), &body_len, &checksum).ok());
  wire.back() ^= 0x01;  // flip one payload bit
  EXPECT_EQ(
      ParseFrameBody(wire.data() + kFrameHeaderSize, body_len, checksum)
          .status()
          .code(),
      util::StatusCode::kDataLoss);
}

TEST(FrameTest, UnknownMessageTypeIsRejected) {
  std::vector<uint8_t> wire;
  EncodeFrame(static_cast<MsgType>(0x42), 3, {}, &wire);
  uint32_t body_len = 0;
  uint64_t checksum = 0;
  ASSERT_TRUE(ParseFrameHeader(wire.data(), &body_len, &checksum).ok());
  EXPECT_EQ(
      ParseFrameBody(wire.data() + kFrameHeaderSize, body_len, checksum)
          .status()
          .code(),
      util::StatusCode::kInvalidArgument);
}

TEST(WireTest, HelloRoundTrip) {
  HelloAck ack;
  ack.protocol_version = kProtocolVersion;
  ack.sequence = 12345;
  std::vector<uint8_t> bytes;
  EncodeHelloAck(ack, &bytes);
  store::ByteReader in(bytes.data(), bytes.size());
  HelloAck decoded;
  ASSERT_TRUE(DecodeHelloAck(&in, &decoded));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded.protocol_version, ack.protocol_version);
  EXPECT_EQ(decoded.sequence, ack.sequence);

  // Version 0 is nonsense from any peer.
  bytes.clear();
  store::PutVarint64(&bytes, 0);
  store::ByteReader zero(bytes.data(), bytes.size());
  Hello hello;
  EXPECT_FALSE(DecodeHello(&zero, &hello));
}

/// A request exercising every encoded field with non-default values.
QueryMsg FullQueryMsg() {
  QueryMsg msg;
  msg.min_sequence = 42;
  msg.request.category = synth::PoiCategory::kHospital;
  msg.request.options.exact = false;
  msg.request.options.beta = 0.15;
  msg.request.options.model = ml::ModelKind::kCoreg;
  msg.request.options.cost = core::CostKind::kGeneralizedCost;
  msg.request.options.gravity.decay_scale_m = 1234.5;
  msg.request.options.gravity.keep_scale = 1.75;
  msg.request.options.gravity.sample_rate_per_hour = 6;
  msg.request.options.gac.lambda_tan = 0.1;
  msg.request.options.gac.lambda_wt = 1.9;
  msg.request.options.gac.lambda_ivt = 1.1;
  msg.request.options.gac.lambda_et = 0.9;
  msg.request.options.gac.transfer_penalty_s = 240.0;
  msg.request.options.gac.value_of_time = 12.5;
  msg.request.options.seed = 987654321;
  msg.request.deadline_s = 2.5;
  return msg;
}

TEST(WireTest, QueryMsgRoundTripsEveryField) {
  QueryMsg msg = FullQueryMsg();
  std::vector<uint8_t> bytes;
  EncodeQueryMsg(msg, &bytes);
  store::ByteReader in(bytes.data(), bytes.size());
  QueryMsg decoded;
  ASSERT_TRUE(DecodeQueryMsg(&in, &decoded));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded.min_sequence, msg.min_sequence);
  EXPECT_EQ(decoded.request.category, msg.request.category);
  EXPECT_EQ(decoded.request.options.exact, msg.request.options.exact);
  EXPECT_EQ(decoded.request.options.beta, msg.request.options.beta);
  EXPECT_EQ(decoded.request.options.model, msg.request.options.model);
  EXPECT_EQ(decoded.request.options.cost, msg.request.options.cost);
  EXPECT_EQ(decoded.request.options.gravity.decay_scale_m,
            msg.request.options.gravity.decay_scale_m);
  EXPECT_EQ(decoded.request.options.gravity.keep_scale,
            msg.request.options.gravity.keep_scale);
  EXPECT_EQ(decoded.request.options.gravity.sample_rate_per_hour,
            msg.request.options.gravity.sample_rate_per_hour);
  EXPECT_EQ(decoded.request.options.gac.lambda_tan,
            msg.request.options.gac.lambda_tan);
  EXPECT_EQ(decoded.request.options.gac.transfer_penalty_s,
            msg.request.options.gac.transfer_penalty_s);
  EXPECT_EQ(decoded.request.options.gac.value_of_time,
            msg.request.options.gac.value_of_time);
  EXPECT_EQ(decoded.request.options.seed, msg.request.options.seed);
  EXPECT_EQ(decoded.request.deadline_s, msg.request.deadline_s);
}

TEST(WireTest, QueryMsgDecodeValidatesEnumRanges) {
  QueryMsg msg = FullQueryMsg();
  std::vector<uint8_t> bytes;
  EncodeQueryMsg(msg, &bytes);
  // Byte 0 is the min_sequence varint (42 fits in one byte); byte 1 is the
  // category.
  std::vector<uint8_t> bad = bytes;
  bad[1] = 0xEE;
  store::ByteReader in(bad.data(), bad.size());
  QueryMsg decoded;
  EXPECT_FALSE(DecodeQueryMsg(&in, &decoded));

  // Truncations fail cleanly at every length.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    store::ByteReader prefix(bytes.data(), cut);
    EXPECT_FALSE(DecodeQueryMsg(&prefix, &decoded)) << "prefix " << cut;
  }
}

TEST(WireTest, QueryResultRoundTripsBitIdentically) {
  QueryResultMsg msg;
  msg.sequence = 9;
  msg.result.mac = {60.0, 120.5, 0.125, 1e9};
  msg.result.acsd = {1.0, 2.0, 3.0, 4.0};
  msg.result.classes = {0, 2, 1, 3};
  msg.result.mean_mac = 75.375;
  msg.result.mean_acsd = 2.5;
  msg.result.fairness = 0.987654321;
  msg.result.population_fairness = 0.5;
  msg.result.vulnerable_fairness = 0.25;
  msg.result.spqs = 123456;
  msg.result.elapsed_s = 0.75;
  msg.result.gravity_trips = 99999;

  std::vector<uint8_t> bytes;
  EncodeQueryResultMsg(msg, &bytes);
  store::ByteReader in(bytes.data(), bytes.size());
  QueryResultMsg decoded;
  ASSERT_TRUE(DecodeQueryResultMsg(&in, &decoded));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded.sequence, msg.sequence);
  EXPECT_EQ(decoded.result.mac, msg.result.mac);  // bit-exact doubles
  EXPECT_EQ(decoded.result.acsd, msg.result.acsd);
  EXPECT_EQ(decoded.result.classes, msg.result.classes);
  EXPECT_EQ(decoded.result.mean_mac, msg.result.mean_mac);
  EXPECT_EQ(decoded.result.fairness, msg.result.fairness);
  EXPECT_EQ(decoded.result.spqs, msg.result.spqs);
  EXPECT_EQ(decoded.result.gravity_trips, msg.result.gravity_trips);
}

TEST(WireTest, ZeroZoneQueryResultRoundTrips) {
  // Empty measure columns decode through the zero-count column path.
  QueryResultMsg msg;
  msg.sequence = 4;
  msg.result.spqs = 7;
  std::vector<uint8_t> bytes;
  EncodeQueryResultMsg(msg, &bytes);
  store::ByteReader in(bytes.data(), bytes.size());
  QueryResultMsg decoded;
  ASSERT_TRUE(DecodeQueryResultMsg(&in, &decoded));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded.sequence, 4u);
  EXPECT_TRUE(decoded.result.mac.empty());
  EXPECT_TRUE(decoded.result.acsd.empty());
  EXPECT_TRUE(decoded.result.classes.empty());
  EXPECT_EQ(decoded.result.spqs, 7u);
}

TEST(WireTest, MutateResultRoundTrip) {
  MutateResultMsg msg;
  msg.sequence = 17;
  msg.report.epoch = 3;
  msg.report.poi_id = 4242;
  msg.report.states_patched = 2;
  msg.report.states_shared = 5;
  msg.report.zones_relabeled = 12;
  msg.report.zones_total = 64;
  msg.report.spqs = 777;
  msg.report.seconds = 0.125;

  std::vector<uint8_t> bytes;
  EncodeMutateResultMsg(msg, &bytes);
  store::ByteReader in(bytes.data(), bytes.size());
  MutateResultMsg decoded;
  ASSERT_TRUE(DecodeMutateResultMsg(&in, &decoded));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded.sequence, msg.sequence);
  EXPECT_EQ(decoded.report.epoch, msg.report.epoch);
  EXPECT_EQ(decoded.report.poi_id, msg.report.poi_id);
  EXPECT_EQ(decoded.report.states_patched, msg.report.states_patched);
  EXPECT_EQ(decoded.report.states_shared, msg.report.states_shared);
  EXPECT_EQ(decoded.report.zones_relabeled, msg.report.zones_relabeled);
  EXPECT_EQ(decoded.report.zones_total, msg.report.zones_total);
  EXPECT_EQ(decoded.report.spqs, msg.report.spqs);
  EXPECT_EQ(decoded.report.seconds, msg.report.seconds);
}

TEST(WireTest, InfoResultRoundTrip) {
  InfoResultMsg msg;
  msg.sequence = 1000;
  msg.epoch = 12;
  std::vector<uint8_t> bytes;
  EncodeInfoResultMsg(msg, &bytes);
  store::ByteReader in(bytes.data(), bytes.size());
  InfoResultMsg decoded;
  ASSERT_TRUE(DecodeInfoResultMsg(&in, &decoded));
  EXPECT_EQ(decoded.sequence, msg.sequence);
  EXPECT_EQ(decoded.epoch, msg.epoch);
}

TEST(WireTest, ErrorMsgRoundTripsEveryStatusCode) {
  // The util::Status error model IS the wire error model: every code —
  // including the transport codes this PR added — survives the trip.
  for (uint8_t code = 1;
       code <= static_cast<uint8_t>(util::StatusCode::kAborted); ++code) {
    util::Status status = util::Status::FromCode(
        static_cast<util::StatusCode>(code), "remote detail");
    std::vector<uint8_t> bytes;
    EncodeErrorMsg(status, &bytes);
    store::ByteReader in(bytes.data(), bytes.size());
    util::Status decoded;
    ASSERT_TRUE(DecodeErrorMsg(&in, &decoded)) << int{code};
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), "remote detail");
  }
}

TEST(WireTest, UnknownErrorCodeDegradesToInternal) {
  std::vector<uint8_t> bytes;
  bytes.push_back(0xC8);  // a code from the future
  store::PutLengthPrefixed(&bytes, "novel failure");
  store::ByteReader in(bytes.data(), bytes.size());
  util::Status decoded;
  ASSERT_TRUE(DecodeErrorMsg(&in, &decoded));
  EXPECT_EQ(decoded.code(), util::StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("novel failure"), std::string::npos);
}

}  // namespace
}  // namespace staq::net
