#include "core/codec.hpp"

#include <limits>

namespace apxa::core {

namespace {

bool type_in(MsgType t, std::initializer_list<MsgType> set) {
  for (MsgType s : set) {
    if (t == s) return true;
  }
  return false;
}

// Reads [dim varint][f64 x dim] to the end of the frame.  Checks the length
// before allocating: a forged 5-byte frame claiming a huge dim must not make
// an honest party zero-fill the claimed size.
std::optional<std::vector<double>> read_point(ByteReader& r) {
  const std::uint64_t dim = r.get_varint();
  if (dim == 0 || dim > (1u << 16) || r.remaining() != 8 * dim) {
    return std::nullopt;
  }
  std::vector<double> v(dim);
  for (double& x : v) x = r.get_f64();
  return v;
}

}  // namespace

// Decoders are TOTAL: every byte sequence yields a message or nullopt,
// never an exception.  They run on raw network input inside honest parties'
// message loops (and scheduler probes), where a byzantine peer controls the
// bytes — a truncated frame that threw would crash every correct process.
// total_decode (common/bytes.hpp) maps ByteReader overruns to nullopt.

std::optional<MsgType> peek_type(BytesView payload) {
  if (payload.empty()) return std::nullopt;
  const auto raw = static_cast<std::uint8_t>(payload[0]);
  if (raw < 1 || raw > 10) return std::nullopt;
  return static_cast<MsgType>(raw);
}

Bytes encode_round(const RoundMsg& m) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kRound));
  w.put_varint(m.round);
  w.put_f64(m.value);
  w.put_varint(m.budget);
  return std::move(w).take();
}

std::optional<RoundMsg> decode_round(BytesView payload) {
  if (peek_type(payload) != MsgType::kRound) return std::nullopt;
  return total_decode([&]() -> std::optional<RoundMsg> {
    ByteReader r(payload);
    r.get_u8();
    RoundMsg m;
    m.round = static_cast<Round>(r.get_varint());
    m.value = r.get_f64();
    m.budget = static_cast<std::uint32_t>(r.get_varint());
    if (!r.done()) return std::nullopt;
    return m;
  });
}

Bytes encode_done(const DoneMsg& m) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kDone));
  w.put_varint(m.round);
  w.put_f64(m.value);
  return std::move(w).take();
}

std::optional<DoneMsg> decode_done(BytesView payload) {
  if (peek_type(payload) != MsgType::kDone) return std::nullopt;
  return total_decode([&]() -> std::optional<DoneMsg> {
    ByteReader r(payload);
    r.get_u8();
    DoneMsg m;
    m.round = static_cast<Round>(r.get_varint());
    m.value = r.get_f64();
    if (!r.done()) return std::nullopt;
    return m;
  });
}

Bytes encode_rb(const RbMsg& m) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(m.type));
  w.put_varint(m.instance);
  w.put_varint(m.origin);
  w.put_f64(m.value);
  return std::move(w).take();
}

std::optional<RbMsg> decode_rb(BytesView payload) {
  const auto t = peek_type(payload);
  if (!t || !type_in(*t, {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady})) {
    return std::nullopt;
  }
  return total_decode([&]() -> std::optional<RbMsg> {
    ByteReader r(payload);
    r.get_u8();
    RbMsg m;
    m.type = *t;
    m.instance = static_cast<std::uint32_t>(r.get_varint());
    m.origin = static_cast<ProcessId>(r.get_varint());
    m.value = r.get_f64();
    if (!r.done()) return std::nullopt;
    return m;
  });
}

Bytes encode_report(const ReportMsg& m) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kReport));
  w.put_varint(m.iter);
  w.put_bits(m.have);
  return std::move(w).take();
}

std::optional<ReportMsg> decode_report(BytesView payload) {
  if (peek_type(payload) != MsgType::kReport) return std::nullopt;
  return total_decode([&]() -> std::optional<ReportMsg> {
    ByteReader r(payload);
    r.get_u8();
    ReportMsg m;
    m.iter = static_cast<std::uint32_t>(r.get_varint());
    m.have = r.get_bits();
    if (!r.done()) return std::nullopt;
    return m;
  });
}

Bytes encode_rb_vec(const RbVecMsg& m) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(m.type));
  w.put_varint(m.instance);
  w.put_varint(m.origin);
  w.put_varint(m.value.size());
  for (double x : m.value) w.put_f64(x);
  return std::move(w).take();
}

std::optional<RbVecMsg> decode_rb_vec(BytesView payload) {
  const auto t = peek_type(payload);
  if (!t || !type_in(*t, {MsgType::kRbVecSend, MsgType::kRbVecEcho,
                          MsgType::kRbVecReady})) {
    return std::nullopt;
  }
  return total_decode([&]() -> std::optional<RbVecMsg> {
    ByteReader r(payload);
    r.get_u8();
    RbVecMsg m;
    m.type = *t;
    m.instance = static_cast<std::uint32_t>(r.get_varint());
    m.origin = static_cast<ProcessId>(r.get_varint());
    auto v = read_point(r);
    if (!v) return std::nullopt;
    m.value = std::move(*v);
    return m;
  });
}

Bytes encode_vec_round(Round r, const std::vector<double>& v,
                       std::uint32_t budget) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kVecRound));
  w.put_varint(r);
  w.put_varint(v.size());
  for (double x : v) w.put_f64(x);
  if (budget != 0) w.put_varint(budget);
  return std::move(w).take();
}

double VecFrame::coord(std::uint32_t c) const {
  return ByteReader(point.subspan(8 * c, 8)).get_f64();
}

std::vector<double> VecFrame::values() const {
  ByteReader r(point);
  std::vector<double> v(dim());
  for (double& x : v) x = r.get_f64();
  return v;
}

std::optional<VecFrame> decode_vec_frame(BytesView payload) {
  if (peek_type(payload) != MsgType::kVecRound) return std::nullopt;
  return total_decode([&]() -> std::optional<VecFrame> {
    ByteReader r(payload);
    r.get_u8();
    VecFrame m;
    m.round = static_cast<Round>(r.get_varint());
    const std::uint64_t dim = r.get_varint();
    if (dim == 0 || dim > (1u << 16) || r.remaining() < 8 * dim) {
      return std::nullopt;
    }
    const std::size_t at = payload.size() - r.remaining();
    m.point = payload.subspan(at, 8 * dim);
    ByteReader tail(payload.subspan(at + 8 * dim));
    if (!tail.done()) {
      const std::uint64_t budget = tail.get_varint();
      if (budget == 0 || budget > std::numeric_limits<std::uint32_t>::max() ||
          !tail.done()) {
        return std::nullopt;
      }
      m.budget = static_cast<std::uint32_t>(budget);
    }
    return m;
  });
}

std::optional<std::pair<Round, std::vector<double>>> decode_vec_round(
    BytesView payload) {
  const auto m = decode_vec_frame(payload);
  if (!m) return std::nullopt;
  return std::make_pair(m->round, m->values());
}

sched::ProbeFn value_probe() {
  return [](BytesView payload) -> std::optional<sched::ValueProbe> {
    if (const auto m = decode_round(payload)) {
      return sched::ValueProbe{m->round, m->value};
    }
    if (const auto m = decode_vec_frame(payload)) {
      return sched::ValueProbe{m->round, m->coord(0)};
    }
    if (const auto m = decode_rb_vec(payload)) {
      return sched::ValueProbe{m->instance, m->value[0]};
    }
    return std::nullopt;
  };
}

}  // namespace apxa::core
