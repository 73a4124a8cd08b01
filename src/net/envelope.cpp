#include "net/envelope.hpp"

#include <limits>

namespace apxa::net {

Bytes encode_envelope(std::uint32_t instance, BytesView inner) {
  APXA_ENSURE(!inner.empty(), "cannot envelope an empty frame");
  ByteWriter w;
  w.put_u8(kEnvelopeTag);
  w.put_varint(instance);
  Bytes out = std::move(w).take();
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

bool is_envelope(BytesView frame) {
  return !frame.empty() && static_cast<std::uint8_t>(frame[0]) == kEnvelopeTag;
}

std::optional<EnvelopeView> decode_envelope(BytesView frame) {
  if (!is_envelope(frame)) return std::nullopt;
  return total_decode([&]() -> std::optional<EnvelopeView> {
    ByteReader r(frame);
    r.get_u8();
    const std::uint64_t instance = r.get_varint();
    if (instance > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
    if (r.remaining() == 0) return std::nullopt;  // envelopes carry a message
    EnvelopeView v;
    v.instance = static_cast<std::uint32_t>(instance);
    v.payload = frame.subspan(frame.size() - r.remaining());
    return v;
  });
}

Bytes encode_batch(std::span<const Bytes> frames) {
  APXA_ENSURE(!frames.empty() && frames.size() <= kMaxBatchFrames,
              "batch packs 1..kMaxBatchFrames frames");
  ByteWriter w;
  w.put_u8(kBatchTag);
  w.put_varint(frames.size());
  for (const Bytes& f : frames) {
    APXA_ENSURE(!f.empty(), "cannot batch an empty frame");
    APXA_ENSURE(static_cast<std::uint8_t>(f[0]) != kBatchTag,
                "batches do not nest");
    w.put_varint(f.size());
    for (const std::byte b : f) w.put_u8(static_cast<std::uint8_t>(b));
  }
  return std::move(w).take();
}

std::optional<std::vector<BytesView>> decode_batch(BytesView packet) {
  if (packet.empty() || static_cast<std::uint8_t>(packet[0]) != kBatchTag) {
    return std::nullopt;
  }
  return total_decode([&]() -> std::optional<std::vector<BytesView>> {
    ByteReader r(packet);
    r.get_u8();
    const std::uint64_t count = r.get_varint();
    if (count == 0 || count > kMaxBatchDecodeFrames) return std::nullopt;
    std::vector<BytesView> frames;
    frames.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t len = r.get_varint();
      if (len == 0 || len > r.remaining()) return std::nullopt;
      const BytesView frame =
          packet.subspan(packet.size() - r.remaining(), len);
      if (static_cast<std::uint8_t>(frame[0]) == kBatchTag) {
        return std::nullopt;  // no recursion
      }
      frames.push_back(frame);
      for (std::uint64_t j = 0; j < len; ++j) r.get_u8();
    }
    if (!r.done()) return std::nullopt;
    return frames;
  });
}

std::vector<BytesView> unpack_packet(BytesView packet) {
  if (!packet.empty() && static_cast<std::uint8_t>(packet[0]) == kBatchTag) {
    if (auto frames = decode_batch(packet)) return std::move(*frames);
  }
  return {packet};
}

}  // namespace apxa::net
