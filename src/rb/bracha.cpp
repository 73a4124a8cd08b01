#include "rb/bracha.hpp"

#include "common/ensure.hpp"

namespace apxa::rb {

using core::MsgType;

namespace {

Bytes encode(MsgType type, std::uint32_t instance, ProcessId origin,
             const BrachaHub::Value& value) {
  return core::encode_rb_vec(core::RbVecMsg{type, instance, origin, value});
}

}  // namespace

BrachaHub::BrachaHub(SystemParams params, DeliverFn on_deliver)
    : params_(params), deliver_(std::move(on_deliver)) {
  APXA_ENSURE(params_.n > 3 * params_.t, "Bracha RB requires n > 3t");
  APXA_ENSURE(deliver_ != nullptr, "delivery callback required");
}

void BrachaHub::broadcast(net::Context& ctx, std::uint32_t instance,
                          const Value& value) {
  const Key key{instance, ctx.self()};
  ctx.multicast(encode(MsgType::kRbVecSend, instance, ctx.self(), value));
  // Process our own SEND locally: echo it.
  send_echo(ctx, key, value);
}

void BrachaHub::send_echo(net::Context& ctx, const Key& key, const Value& value) {
  Slot& s = slots_[key];
  if (s.echoed) return;
  s.echoed = true;
  ctx.multicast(encode(MsgType::kRbVecEcho, key.first, key.second, value));
  add_echo(ctx, key, ctx.self(), value);
}

void BrachaHub::send_ready(net::Context& ctx, const Key& key, const Value& value) {
  Slot& s = slots_[key];
  if (s.ready_sent) return;
  s.ready_sent = true;
  ctx.multicast(encode(MsgType::kRbVecReady, key.first, key.second, value));
  add_ready(ctx, key, ctx.self(), value);
}

void BrachaHub::add_echo(net::Context& ctx, const Key& key, ProcessId voter,
                         const Value& value) {
  Slot& s = slots_[key];
  // First vote per voter wins (see Slot::echo_voters): caps the state a
  // vote-flooding byzantine can create, and costs honest traffic nothing.
  if (!s.echo_voters.insert(voter).second) return;
  auto& voters = s.echoes[value];
  voters.insert(voter);
  if (voters.size() >= params_.quorum()) send_ready(ctx, key, value);
}

void BrachaHub::add_ready(net::Context& ctx, const Key& key, ProcessId voter,
                          const Value& value) {
  Slot& s = slots_[key];
  if (!s.ready_voters.insert(voter).second) return;
  auto& voters = s.readies[value];
  voters.insert(voter);
  if (voters.size() >= params_.t + 1) send_ready(ctx, key, value);
  if (voters.size() >= 2 * params_.t + 1 && !s.delivered) {
    s.delivered = true;
    deliver_(ctx, key.first, key.second, value);
  }
}

bool BrachaHub::handle(net::Context& ctx, ProcessId from, BytesView payload) {
  const auto m = core::decode_rb_vec(payload);
  if (!m) return false;
  // Out-of-range origins are byzantine garbage, not a caller bug: discard
  // like every other malformed input (throwing here would let one forged
  // message crash every honest party).
  if (m->origin >= params_.n) return true;
  const Key key{m->instance, m->origin};
  if (m->type == MsgType::kRbVecSend) {
    // Authenticated channels: a SEND for origin o is only honored when it
    // arrives from o itself (byzantine parties cannot forge senders).
    if (from == m->origin) send_echo(ctx, key, m->value);
  } else if (m->type == MsgType::kRbVecEcho) {
    add_echo(ctx, key, from, m->value);
  } else {
    add_ready(ctx, key, from, m->value);
  }
  return true;
}

}  // namespace apxa::rb
