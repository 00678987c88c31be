#include "src/rpc/rdp.h"

namespace xk {

RdpProtocol::RdpProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}), active_(*this), sends_(*this) {
  ParticipantSet enable;
  enable.local.rel_proto = kRelProtoRdp;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<RdpProtocol::Pool*> RdpProtocol::PoolFor(IpAddr peer) {
  auto it = pools_.find(peer);
  if (it != pools_.end()) {
    return &it->second;
  }
  Pool pool;
  pool.available = std::make_unique<XSemaphore>(kernel(), kNumChannels);
  // CHANNEL names a channel by (peer, id) whichever side opened it, so two
  // peers sending to each other need disjoint ids: the lower address takes
  // 100.., the higher 100 + kNumChannels.. (all above SELECT's).
  const int base = kernel().ip_addr() < peer ? 100 : 100 + kNumChannels;
  for (int i = 0; i < kNumChannels; ++i) {
    ParticipantSet parts;
    parts.peer.host = peer;
    parts.local.channel = static_cast<uint16_t>(base + i);
    parts.local.rel_proto = kRelProtoRdp;
    Result<SessionRef> chan = lower(0)->Open(*this, parts);
    if (!chan.ok()) {
      return chan.status();
    }
    pool.channels.push_back(*chan);
    pool.busy.push_back(false);
  }
  return &pools_.emplace(peer, std::move(pool)).first->second;
}

Result<SessionRef> RdpProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if (SessionRef cached = active_.Resolve(*parts.peer.host)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  Result<Pool*> pool = PoolFor(*parts.peer.host);
  if (!pool.ok()) {
    return pool.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = NewSession<RdpSession>(*this, &hlp, *parts.peer.host);
  active_.Bind(*parts.peer.host, sess);
  return SessionRef(sess);
}

Status RdpProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  (void)parts;
  if (enabled_hlp_ != nullptr && enabled_hlp_ != &hlp) {
    return ErrStatus(StatusCode::kAlreadyExists);
  }
  enabled_hlp_ = &hlp;
  return OkStatus();
}

void RdpProtocol::ReleaseChannelFor(Session* channel) {
  for (auto& [peer, pool] : pools_) {
    for (size_t i = 0; i < pool.channels.size(); ++i) {
      if (pool.channels[i].get() == channel) {
        pool.busy[i] = false;
        pool.available->V();
        return;
      }
    }
  }
}

Status RdpProtocol::DoDemux(Session* lls, Message& msg) {
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  // Is this the (empty) reply to one of our sends?
  if (SessionRef sender = sends_.Resolve(lls)) {
    sends_.Unbind(lls);
    ReleaseChannelFor(lls);
    return OkStatus();  // delivery confirmed; nothing to surface
  }
  // Otherwise it is an incoming datagram: deliver it to the peer's session
  // (opened or passively created), then acknowledge by replying (empty) on
  // the channel.
  IpAddr peer;
  ControlArgs args;
  if (lls->Control(ControlOp::kGetPeerHost, args).ok()) {
    peer = args.ip;
  }
  SessionRef sess = active_.Resolve(peer);
  if (sess == nullptr) {
    if (enabled_hlp_ == nullptr) {
      return ErrStatus(StatusCode::kNotFound);
    }
    kernel().ChargeSessionCreate();
    sess = NewSession<RdpSession>(*this, enabled_hlp_, peer);
    active_.Bind(peer, sess);
    ParticipantSet up;
    up.peer.host = peer;
    Status s = enabled_hlp_->OpenDoneUp(*this, sess, up);
    if (!s.ok()) {
      active_.Unbind(peer);
      return s;
    }
  }
  ++stats_.datagrams_delivered;
  Status delivered = sess->Pop(msg, lls);
  Message empty_reply;
  (void)lls->Push(empty_reply);  // the channel is in_progress: complete it
  return delivered;
}

void RdpProtocol::SessionError(Session& lls, Status error, const Message* request) {
  (void)request;
  if (SessionRef sender = sends_.Take(&lls)) {
    ReleaseChannelFor(&lls);
    auto* sess = static_cast<RdpSession*>(sender.get());
    if (sess->hlp() != nullptr) {
      sess->hlp()->SessionError(*sess, error, nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// RdpSession
// ---------------------------------------------------------------------------

RdpSession::RdpSession(RdpProtocol& owner, Protocol* hlp, IpAddr peer)
    : Session(owner, hlp), rdp_(owner), peer_(peer) {}

Status RdpSession::DoPush(Message& msg) {
  Result<RdpProtocol::Pool*> pool_r = rdp_.PoolFor(peer_);
  if (!pool_r.ok()) {
    return pool_r.status();
  }
  RdpProtocol::Pool* pool = *pool_r;
  pool->available->P([this, pool, msg]() mutable {
    size_t index = 0;
    kernel().ChargeMapResolve();
    while (index < pool->busy.size() && pool->busy[index]) {
      ++index;
    }
    pool->busy[index] = true;
    SessionRef channel = pool->channels[index];
    rdp_.sends_.Bind(channel.get(), Ref());
    (void)channel->Push(msg);
  });
  return OkStatus();
}

Status RdpSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status RdpSession::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetPeerHost) {
    args.ip = peer_;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

}  // namespace xk
