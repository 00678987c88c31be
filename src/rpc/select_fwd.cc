#include "src/rpc/select_fwd.h"

#include "src/core/wire.h"

namespace xk {

SelectFwdProtocol::SelectFwdProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : SelectProtocol(kernel, lower, std::move(name), kRelProtoSelectFwd) {}

void SelectFwdProtocol::AddForwardingRule(uint16_t command, IpAddr target) {
  forward_rules_[command] = target;
}

Status SelectFwdProtocol::SendForward(Session* lls, uint16_t command, IpAddr target) {
  uint8_t raw[kHeaderSize];
  WireWriter w(raw);
  w.PutU8(kTypeForward);
  w.PutU16(command);
  w.PutU8(kStatusOk);
  uint8_t addr[4];
  WireWriter aw(addr);
  aw.PutIpAddr(target);
  Message reply = Message::FromBytes(addr);
  kernel().ChargeHdrStore(kHeaderSize);
  reply.PushHeader(raw);
  ++forwards_sent_;
  return lls->Push(reply);  // the channel is in_progress: this is its reply
}

Status SelectFwdProtocol::FollowForward(Session* lls, uint16_t command, Message& msg) {
  // Client side: release the channel this call occupied, then re-issue the
  // saved request toward the host named in the payload.
  SessionRef caller = calls_.Resolve(lls);
  if (caller == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  calls_.Unbind(lls);
  auto* sess = static_cast<SelectSession*>(caller.get());
  auto pit = pools_.find(sess->server());
  if (pit != pools_.end()) {
    for (size_t i = 0; i < pit->second.channels.size(); ++i) {
      if (pit->second.channels[i].get() == lls) {
        ReleaseChannel(pit->second, i);
        break;
      }
    }
  }
  uint8_t addr[4];
  if (!msg.PopHeader(addr)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  WireReader r(addr);
  const IpAddr target = r.GetIpAddr();

  if (sess->forward_hops() >= kMaxHops) {
    sess->CallFinished();
    if (sess->hlp() != nullptr) {
      sess->hlp()->SessionError(*sess, ErrStatus(StatusCode::kUnreachable), nullptr);
    }
    return OkStatus();
  }
  sess->set_forward_hops(sess->forward_hops() + 1);
  ++forwards_followed_;

  // Re-issue the saved request through the pool toward the forward target,
  // but keep the ORIGINAL session bound to the call so the eventual reply
  // reaches the caller who started it (the forwarding is transparent).
  Result<ChannelPool*> pool_r = PoolFor(target);
  if (!pool_r.ok()) {
    sess->CallFinished();
    if (sess->hlp() != nullptr) {
      sess->hlp()->SessionError(*sess, pool_r.status(), nullptr);
    }
    return pool_r.status();
  }
  ChannelPool* pool = *pool_r;
  Message request = sess->last_request();
  pool->available->P([this, pool, caller, command, request]() mutable {
    size_t index = 0;
    kernel().ChargeMapResolve();
    while (index < pool->busy.size() && pool->busy[index]) {
      ++index;
    }
    pool->busy[index] = true;
    SessionRef channel = pool->channels[index];
    calls_.Bind(channel.get(), caller);
    uint8_t raw[kHeaderSize];
    WireWriter w(raw);
    w.PutU8(kTypeCall);
    w.PutU16(command);
    w.PutU8(kStatusOk);
    kernel().ChargeHdrStore(kHeaderSize);
    request.PushHeader(raw);
    (void)channel->Push(request);
  });
  return OkStatus();
}

Status SelectFwdProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PeekHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  WireReader r(raw);
  const uint8_t type = r.GetU8();
  const uint16_t command = r.GetU16();

  if (type == kTypeCall && lls != nullptr) {
    if (auto it = forward_rules_.find(command); it != forward_rules_.end()) {
      kernel().ChargeHdrLoad(kHeaderSize);
      (void)msg.Discard(kHeaderSize);
      return SendForward(lls, command, it->second);
    }
  }
  if (type == kTypeForward && lls != nullptr) {
    kernel().ChargeHdrLoad(kHeaderSize);
    (void)msg.Discard(kHeaderSize);
    return FollowForward(lls, command, msg);
  }
  return SelectProtocol::DoDemux(lls, msg);
}

}  // namespace xk
