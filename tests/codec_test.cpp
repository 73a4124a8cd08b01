// Wire-format round trips, malformed-input rejection, and probe behavior.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/codec.hpp"
#include "net/envelope.hpp"

namespace apxa::core {
namespace {

TEST(Codec, RoundMsgRoundTrip) {
  const RoundMsg m{42, -3.75, 17};
  const Bytes b = encode_round(m);
  const auto d = decode_round(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->round, 42u);
  EXPECT_EQ(d->value, -3.75);
  EXPECT_EQ(d->budget, 17u);
}

TEST(Codec, RoundMsgCompact) {
  // tag + 1-byte round + f64 + 1-byte budget = 11 bytes for small fields.
  EXPECT_EQ(encode_round(RoundMsg{3, 1.0, 0}).size(), 11u);
}

TEST(Codec, DoneMsgRoundTrip) {
  const DoneMsg m{7, 0.5};
  const auto d = decode_done(encode_done(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->round, 7u);
  EXPECT_EQ(d->value, 0.5);
}

TEST(Codec, RbMsgRoundTrip) {
  for (MsgType t : {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady}) {
    const RbMsg m{t, 9, 4, 2.25};
    const auto d = decode_rb(encode_rb(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->type, t);
    EXPECT_EQ(d->instance, 9u);
    EXPECT_EQ(d->origin, 4u);
    EXPECT_EQ(d->value, 2.25);
  }
}

TEST(Codec, ReportMsgRoundTrip) {
  ReportMsg m;
  m.iter = 3;
  m.have = {true, false, true, true, false, false, true};
  const auto d = decode_report(encode_report(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->iter, 3u);
  EXPECT_EQ(d->have, m.have);
}

TEST(Codec, RbVecMsgRoundTrip) {
  for (MsgType t :
       {MsgType::kRbVecSend, MsgType::kRbVecEcho, MsgType::kRbVecReady}) {
    const RbVecMsg m{t, 6, 2, {1.5, -2.0, 0.0}};
    const auto d = decode_rb_vec(encode_rb_vec(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->type, t);
    EXPECT_EQ(d->instance, 6u);
    EXPECT_EQ(d->origin, 2u);
    EXPECT_EQ(d->value, m.value);
  }
}

TEST(Codec, RbVecRejectsMalformed) {
  // Scalar RB and vector RB tags are disjoint.
  EXPECT_FALSE(decode_rb_vec(encode_rb(RbMsg{MsgType::kRbSend, 1, 2, 3.0})));
  EXPECT_FALSE(decode_rb(encode_rb_vec(
      RbVecMsg{MsgType::kRbVecSend, 1, 2, {3.0}})));
  // Empty vectors and trailing garbage are rejected.
  EXPECT_FALSE(decode_rb_vec(encode_rb_vec(
      RbVecMsg{MsgType::kRbVecSend, 1, 2, {}})));
  Bytes b = encode_rb_vec(RbVecMsg{MsgType::kRbVecEcho, 1, 2, {3.0, 4.0}});
  b.push_back(static_cast<std::byte>(0));
  EXPECT_FALSE(decode_rb_vec(b).has_value());
}

TEST(Codec, PeekTypeCoversVectorTags) {
  EXPECT_EQ(peek_type(encode_rb_vec(RbVecMsg{MsgType::kRbVecReady, 1, 2, {3.0}})),
            MsgType::kRbVecReady);
}

TEST(Codec, CrossDecodeReturnsNullopt) {
  const Bytes round = encode_round(RoundMsg{1, 2.0, 0});
  EXPECT_FALSE(decode_done(round).has_value());
  EXPECT_FALSE(decode_rb(round).has_value());
  EXPECT_FALSE(decode_report(round).has_value());

  const Bytes rb = encode_rb(RbMsg{MsgType::kRbEcho, 1, 2, 3.0});
  EXPECT_FALSE(decode_round(rb).has_value());
}

TEST(Codec, PeekType) {
  EXPECT_EQ(peek_type(encode_round(RoundMsg{1, 2.0, 0})), MsgType::kRound);
  EXPECT_EQ(peek_type(encode_done(DoneMsg{1, 2.0})), MsgType::kDone);
  EXPECT_EQ(peek_type(Bytes{}), std::nullopt);
  Bytes junk{static_cast<std::byte>(200)};
  EXPECT_EQ(peek_type(junk), std::nullopt);
}

TEST(Codec, TruncatedPayloadRejected) {
  // Decoders are total: truncation — byzantine-forgeable network input —
  // yields nullopt, never an exception (a throw here would crash every
  // honest party's message loop).
  Bytes b = encode_round(RoundMsg{100000, 2.0, 5});
  b.pop_back();
  EXPECT_FALSE(decode_round(b).has_value());
  // The nastiest truncation: a bare valid tag byte and nothing else.
  for (std::uint8_t tag = 1; tag <= 10; ++tag) {
    const Bytes lone{static_cast<std::byte>(tag)};
    EXPECT_FALSE(decode_round(lone).has_value());
    EXPECT_FALSE(decode_done(lone).has_value());
    EXPECT_FALSE(decode_rb(lone).has_value());
    EXPECT_FALSE(decode_report(lone).has_value());
    EXPECT_FALSE(decode_rb_vec(lone).has_value());
    EXPECT_FALSE(decode_vec_round(lone).has_value());
  }
}

TEST(Codec, TrailingGarbageRejected) {
  Bytes b = encode_round(RoundMsg{1, 2.0, 5});
  b.push_back(static_cast<std::byte>(0));
  EXPECT_FALSE(decode_round(b).has_value());
}

// --- instance envelope & batch framing (net/envelope.hpp) -------------------

/// One representative encoded frame for EVERY protocol wire tag 1..10, so the
/// envelope layer is exercised against the full frame zoo it must carry.
std::vector<Bytes> sample_frames() {
  std::vector<Bytes> frames;
  frames.push_back(encode_round(RoundMsg{42, -3.75, 17}));          // tag 1
  frames.push_back(encode_done(DoneMsg{7, 0.5}));                   // tag 2
  for (MsgType t : {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady}) {
    frames.push_back(encode_rb(RbMsg{t, 9, 4, 2.25}));              // tags 3..5
  }
  ReportMsg rep;
  rep.iter = 3;
  rep.have = {true, false, true, true, false};
  frames.push_back(encode_report(rep));                             // tag 6
  frames.push_back(encode_vec_round(5, {1.0, -2.5, 3.25}));         // tag 7
  for (MsgType t :
       {MsgType::kRbVecSend, MsgType::kRbVecEcho, MsgType::kRbVecReady}) {
    frames.push_back(encode_rb_vec(RbVecMsg{t, 6, 2, {1.5, -2.0}}));  // 8..10
  }
  return frames;
}

bool view_equals(BytesView view, const Bytes& expect) {
  return view.size() == expect.size() &&
         std::equal(view.begin(), view.end(), expect.begin());
}

TEST(Envelope, RoundTripCoversEveryTag) {
  std::uint32_t inst = 0;
  for (const Bytes& inner : sample_frames()) {
    const Bytes wire = net::encode_envelope(inst, inner);
    EXPECT_TRUE(net::is_envelope(wire));
    const auto env = net::decode_envelope(wire);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->instance, inst);
    EXPECT_TRUE(view_equals(env->payload, inner));
    inst = inst * 31 + 101;  // walks into multi-byte varint territory
  }
}

TEST(Envelope, BatchRoundTripMixedFrames) {
  // A batch may mix enveloped and legacy (bare) frames.
  const auto inners = sample_frames();
  std::vector<Bytes> frames;
  for (std::size_t i = 0;
       i < inners.size() && frames.size() + 1 < net::kMaxBatchFrames; ++i) {
    frames.push_back(
        net::encode_envelope(static_cast<std::uint32_t>(i), inners[i]));
  }
  frames.push_back(inners.back());  // one bare legacy frame
  const Bytes packet = net::encode_batch(frames);
  EXPECT_FALSE(net::is_envelope(packet));
  const auto dec = net::decode_batch(packet);
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(view_equals((*dec)[i], frames[i]));
  }
}

TEST(Envelope, TruncationTotality) {
  // Every byte prefix of a valid envelope must decode to a value or nullopt,
  // never throw — and whenever the prefix still parses as an envelope (the
  // inner frame extends to the end, so truncation can land inside it), the
  // truncated INNER frame must be rejected by the protocol decoder.
  const Bytes inner = encode_round(RoundMsg{100000, 2.0, 5});
  const Bytes env = net::encode_envelope(3000000, inner);  // multi-byte varint
  for (std::size_t len = 0; len < env.size(); ++len) {
    const BytesView prefix(env.data(), len);
    const auto d = net::decode_envelope(prefix);
    if (d.has_value()) {
      EXPECT_FALSE(decode_round(d->payload).has_value());
    }
    // unpack_packet is total too: a non-batch prefix yields itself.
    if (len > 0) {
      EXPECT_EQ(net::unpack_packet(prefix).size(), 1u);
    }
  }

  // Every strict prefix of a batch fails the exact-fill check.
  std::vector<Bytes> frames;
  for (std::uint32_t i = 0; i < 3; ++i) {
    frames.push_back(net::encode_envelope(i, inner));
  }
  const Bytes packet = net::encode_batch(frames);
  for (std::size_t len = 0; len < packet.size(); ++len) {
    EXPECT_FALSE(net::decode_batch(BytesView(packet.data(), len)).has_value());
  }

  // The nastiest truncation: a bare tag byte and nothing else.
  for (std::uint8_t tag : {net::kEnvelopeTag, net::kBatchTag}) {
    const Bytes lone{static_cast<std::byte>(tag)};
    EXPECT_FALSE(net::decode_envelope(lone).has_value());
    EXPECT_FALSE(net::decode_batch(lone).has_value());
  }
}

TEST(Envelope, OverlongVarintCannotAliasInstanceId) {
  // Fuzz-surfaced decoder gap (PR 10): LEB128 payload bits at or above bit 64
  // used to wrap modulo 2^64, so a forged 10-byte varint encoding
  // instance + 2^64 decoded to the small instance id — a peer could smuggle
  // traffic into instance 7 through bytes that no honest encoder emits.
  // The reader now rejects any 10th byte carrying bits past bit 63.
  const Bytes inner = encode_round(RoundMsg{1, 2.0, 0});
  Bytes forged{static_cast<std::byte>(net::kEnvelopeTag)};
  // varint for 7 + 2^64: 0x87, eight 0x80 continuations, then 0x02 (bit 64).
  forged.push_back(static_cast<std::byte>(0x87));
  for (int i = 0; i < 8; ++i) forged.push_back(static_cast<std::byte>(0x80));
  forged.push_back(static_cast<std::byte>(0x02));
  forged.insert(forged.end(), inner.begin(), inner.end());
  EXPECT_FALSE(net::decode_envelope(forged).has_value());

  // The honest canonical encoding of instance 7 still decodes, of course.
  const auto ok = net::decode_envelope(net::encode_envelope(7, inner));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->instance, 7u);

  // Same wrap through a protocol-frame varint (ROUND's round field): total
  // rejection, no exception.
  Bytes round_forged{static_cast<std::byte>(MsgType::kRound)};
  round_forged.push_back(static_cast<std::byte>(0x81));
  for (int i = 0; i < 8; ++i) {
    round_forged.push_back(static_cast<std::byte>(0x80));
  }
  round_forged.push_back(static_cast<std::byte>(0x02));
  for (int i = 0; i < 8; ++i) round_forged.push_back(std::byte{});  // value
  round_forged.push_back(std::byte{});                              // budget
  EXPECT_FALSE(decode_round(round_forged).has_value());

  // UINT64_MAX itself is representable and must keep round-tripping: its
  // 10th byte is 0x01, which carries only bit 63.
  ByteWriter w;
  w.put_varint(~0ull);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_varint(), ~0ull);
}

TEST(Envelope, BatchRefusesNesting) {
  const Bytes env = net::encode_envelope(0, encode_done(DoneMsg{1, 2.0}));
  const Bytes packet = net::encode_batch(std::vector<Bytes>{env});
  // Encoder-side: batching a batch throws (programming error, not input).
  EXPECT_THROW(net::encode_batch(std::vector<Bytes>{packet}),
               std::invalid_argument);
  // Decoder-side: a forged nested batch [12][1][len][batch...] is rejected.
  Bytes forged;
  forged.push_back(static_cast<std::byte>(net::kBatchTag));
  forged.push_back(static_cast<std::byte>(1));  // count = 1
  ASSERT_LT(packet.size(), 128u);
  forged.push_back(static_cast<std::byte>(packet.size()));  // 1-byte varint len
  forged.insert(forged.end(), packet.begin(), packet.end());
  EXPECT_FALSE(net::decode_batch(forged).has_value());
  // ...and unpack_packet hands the junk through whole rather than crashing.
  EXPECT_EQ(net::unpack_packet(forged).size(), 1u);
}

TEST(Envelope, BatchEncodeValidatesUsage) {
  const Bytes env = net::encode_envelope(0, encode_done(DoneMsg{1, 2.0}));
  EXPECT_THROW(net::encode_batch(std::vector<Bytes>{}), std::invalid_argument);
  EXPECT_THROW(net::encode_batch(std::vector<Bytes>{Bytes{}}),
               std::invalid_argument);
  std::vector<Bytes> over(net::kMaxBatchFrames + 1, env);
  EXPECT_THROW(net::encode_batch(over), std::invalid_argument);
  // A forged count of zero is rejected on decode.
  const Bytes zero{static_cast<std::byte>(net::kBatchTag),
                   static_cast<std::byte>(0)};
  EXPECT_FALSE(net::decode_batch(zero).has_value());
}

TEST(Envelope, UnpackPacketSplitsBatchesOnly) {
  const Bytes legacy = encode_round(RoundMsg{1, 2.0, 0});
  const auto solo = net::unpack_packet(legacy);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_TRUE(view_equals(solo[0], legacy));

  const Bytes env = net::encode_envelope(4, legacy);
  const auto one = net::unpack_packet(env);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(view_equals(one[0], env));

  // Views alias the packet, so it must outlive them.
  std::vector<Bytes> frames{env, legacy, net::encode_envelope(5, legacy)};
  const Bytes batch = net::encode_batch(frames);
  const auto many = net::unpack_packet(batch);
  ASSERT_EQ(many.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(view_equals(many[i], frames[i]));
  }
}

TEST(Codec, ValueProbeCoversEveryFrameKind) {
  // Value-aware schedulers see (round, first coordinate) of every frame that
  // carries a protocol value, whichever collect layer sent it.
  const auto probe = value_probe();
  const auto expect_hit = [&probe](const Bytes& frame, Round round, double value) {
    const auto hit = probe(frame);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->round, round);
    EXPECT_EQ(hit->value, value);
  };
  expect_hit(encode_round(RoundMsg{5, 1.5, 0}), 5, 1.5);
  expect_hit(encode_vec_round(6, {-2.5, 9.0}), 6, -2.5);
  for (MsgType t :
       {MsgType::kRbVecSend, MsgType::kRbVecEcho, MsgType::kRbVecReady}) {
    expect_hit(encode_rb_vec(RbVecMsg{t, 7, 2, {0.25}}), 7, 0.25);
  }

  EXPECT_FALSE(probe(encode_report(ReportMsg{5, {true, true, false}})).has_value());
  EXPECT_FALSE(probe(encode_done(DoneMsg{5, 1.5})).has_value());
  for (MsgType t : {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady}) {
    EXPECT_FALSE(probe(encode_rb(RbMsg{t, 1, 2, 3.0})).has_value());
  }
  EXPECT_FALSE(probe(Bytes{}).has_value());
  EXPECT_FALSE(probe(Bytes{std::byte{7}, std::byte{1}}).has_value());
  EXPECT_FALSE(probe(Bytes{std::byte{200}, std::byte{1}, std::byte{2}}).has_value());
}

TEST(Codec, VecRoundRejectsZeroDim) {
  // Like decode_rb_vec: a point has at least one coordinate.
  EXPECT_FALSE(decode_vec_round(encode_vec_round(3, {})).has_value());
  // A forged frame claiming dim 65536 with no coordinates behind it is
  // rejected on its length, before any allocation of the claimed size.
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kVecRound));
  w.put_varint(0);
  w.put_varint(1u << 16);
  EXPECT_FALSE(decode_vec_round(std::move(w).take()).has_value());
}

TEST(Codec, VecRoundOneDimIsAsLongAsRound) {
  // Scalar round protocols speak 1-point VEC frames; without a budget they
  // cost exactly the bytes of a ROUND frame with budget 0.
  for (const Round r : {0u, 5u, 127u, 128u, 100000u}) {
    EXPECT_EQ(encode_vec_round(r, {0.25}).size(),
              encode_round(RoundMsg{r, 0.25, 0}).size())
        << "round " << r;
  }
}

TEST(Codec, VecRoundBudgetRoundTrips) {
  for (const std::uint32_t budget : {0u, 1u, 64u, 300u, 0xffffffffu}) {
    const Bytes b = encode_vec_round(9, {1.5, -2.0}, budget);
    const auto m = decode_vec_frame(b);
    ASSERT_TRUE(m.has_value()) << budget;
    EXPECT_EQ(m->round, 9u);
    EXPECT_EQ(m->budget, budget);
    EXPECT_EQ(m->values(), (std::vector<double>{1.5, -2.0}));
    // The pair decoder drops the budget but keeps the point.
    EXPECT_EQ(decode_vec_round(b)->second, m->values());
  }
  // The budget is a trailing varint, absent when 0.
  EXPECT_EQ(encode_vec_round(9, {1.5}, 1).size(),
            encode_vec_round(9, {1.5}).size() + 1);
}

TEST(Codec, VecRoundTrailingGarbageRejected) {
  // One encoding per frame: an explicit zero budget, bytes after the budget,
  // a budget past 32 bits and a truncated budget varint are all rejected.
  Bytes zero = encode_vec_round(1, {2.0});
  zero.push_back(std::byte{0});
  EXPECT_FALSE(decode_vec_frame(zero).has_value());
  Bytes extra = encode_vec_round(1, {2.0}, 5);
  extra.push_back(std::byte{1});
  EXPECT_FALSE(decode_vec_frame(extra).has_value());
  EXPECT_FALSE(decode_vec_round(extra).has_value());
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kVecRound));
  w.put_varint(1);
  w.put_varint(1);
  w.put_f64(2.0);
  w.put_varint(std::uint64_t{1} << 32);
  EXPECT_FALSE(decode_vec_frame(std::move(w).take()).has_value());
  Bytes cut = encode_vec_round(1, {2.0}, 300);  // two-byte varint
  cut.pop_back();
  EXPECT_FALSE(decode_vec_frame(cut).has_value());
}

}  // namespace
}  // namespace apxa::core
