#include "src/proto/vip_size.h"

namespace xk {

// ---------------------------------------------------------------------------
// VIP_ADDR
// ---------------------------------------------------------------------------

VipAddrProtocol::VipAddrProtocol(Kernel& kernel, Protocol* eth, Protocol* ip, ArpProtocol* arp,
                                 std::string name)
    : Protocol(kernel, std::move(name), {eth, ip}), arp_(arp) {}

Result<SessionRef> VipAddrProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.ip_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const IpProtoNum proto = *parts.local.ip_proto;
  kernel().ChargeMapResolve();
  if (auto peer_eth = arp_->Lookup(*parts.peer.host)) {
    ParticipantSet eparts;
    eparts.local.eth_type = VipEthTypeFor(proto);
    eparts.peer.eth = *peer_eth;
    return eth()->Open(hlp, eparts);  // note: bound to hlp, not to VIP_ADDR
  }
  if (ip() == nullptr) {
    return ErrStatus(StatusCode::kUnreachable);  // ETH-only shim, host off-link
  }
  ParticipantSet iparts;
  iparts.local.ip_proto = proto;
  iparts.peer.host = *parts.peer.host;
  return ip()->Open(hlp, iparts);
}

Status VipAddrProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.ip_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  ParticipantSet eparts;
  eparts.local.eth_type = VipEthTypeFor(*parts.local.ip_proto);
  Status es = eth()->OpenEnable(hlp, eparts);
  if (ip() == nullptr) {
    return es;
  }
  ParticipantSet iparts;
  iparts.local.ip_proto = *parts.local.ip_proto;
  Status is = ip()->OpenEnable(hlp, iparts);
  return es.ok() ? is : es;
}

Status VipAddrProtocol::DoDemux(Session* lls, Message& msg) {
  // Never on the message path: opens hand out lower sessions directly.
  (void)lls;
  (void)msg;
  return ErrStatus(StatusCode::kUnsupported);
}

Status VipAddrProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      if (ip() == nullptr) {
        return eth()->Control(ControlOp::kGetMaxPacket, args);
      }
      return ip()->Control(ControlOp::kGetMaxPacket, args);
    case ControlOp::kGetOptPacket:
      return eth()->Control(ControlOp::kGetMaxPacket, args);
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// VIP_SIZE
// ---------------------------------------------------------------------------

VipSizeProtocol::VipSizeProtocol(Kernel& kernel, Protocol* small, Protocol* big,
                                 ArpProtocol* arp, std::string name)
    : Protocol(kernel, std::move(name), {small, big}),
      arp_(arp),
      active_(*this),
      passive_by_ip_(*this),
      passive_by_rel_(*this),
      by_lls_(*this) {}

size_t VipSizeProtocol::Threshold() {
  ControlArgs args;
  return small()->Control(ControlOp::kGetOptPacket, args).ok() ? args.u64 : 1500;
}

Result<SessionRef> VipSizeProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.ip_proto.has_value() ||
      !parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const IpAddr peer = *parts.peer.host;
  const IpProtoNum ip_proto = *parts.local.ip_proto;
  const RelProtoNum rel_proto = *parts.local.rel_proto;
  if (SessionRef cached = active_.Resolve(Key{peer, ip_proto})) {
    cached->set_hlp(&hlp);
    return cached;
  }
  // Open the direct path now; the bulk path is opened on first large message
  // (most sessions never send one).
  ParticipantSet sparts;
  sparts.local.ip_proto = ip_proto;
  sparts.peer.host = peer;
  Result<SessionRef> small_sess = small()->Open(*this, sparts);
  if (!small_sess.ok()) {
    return small_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = NewSession<VipSizeSession>(*this, &hlp, peer, ip_proto, rel_proto,
                                         *small_sess, nullptr, Threshold());
  active_.Bind(Key{peer, ip_proto}, sess);
  by_lls_.Bind((*small_sess).get(), sess);
  return SessionRef(sess);
}

Status VipSizeProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.ip_proto.has_value() || !parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Enable e{&hlp, *parts.local.ip_proto, *parts.local.rel_proto};
  passive_by_ip_.Bind(e.ip_proto, e);
  passive_by_rel_.Bind(e.rel_proto, e);
  ParticipantSet sparts;
  sparts.local.ip_proto = e.ip_proto;
  Status ss = small()->OpenEnable(*this, sparts);
  ParticipantSet bparts;
  bparts.local.rel_proto = e.rel_proto;
  Status bs = big()->OpenEnable(*this, bparts);
  return ss.ok() ? bs : ss;
}

Status VipSizeProtocol::OpenDoneUp(Protocol& llp, SessionRef lls, const ParticipantSet& parts) {
  (void)llp;
  // Work out which enable this lower session belongs to and which path slot
  // it fills.
  Enable e;
  SessionRef small_sess;
  SessionRef big_sess;
  std::optional<IpAddr> peer = parts.peer.host;
  if (parts.local.eth_type.has_value()) {
    e = passive_by_ip_.Resolve(static_cast<IpProtoNum>(*parts.local.eth_type - kEthTypeVipBase));
    small_sess = lls;
    if (!peer.has_value() && parts.peer.eth.has_value() && arp_ != nullptr) {
      peer = arp_->ReverseLookup(*parts.peer.eth);
    }
  } else if (parts.local.ip_proto.has_value()) {
    e = passive_by_ip_.Resolve(*parts.local.ip_proto);
    small_sess = lls;
  } else if (parts.local.rel_proto.has_value()) {
    e = passive_by_rel_.Resolve(*parts.local.rel_proto);
    big_sess = lls;
  } else {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if (e.hlp == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  // Reuse an existing session for this peer if one exists (the two paths of
  // one conversation then share a session, as they must for replies).
  SessionRef sess;
  if (peer.has_value()) {
    sess = active_.Resolve(Key{*peer, e.ip_proto});
  }
  if (sess != nullptr) {
    auto* vss = static_cast<VipSizeSession*>(sess.get());
    if (small_sess != nullptr && vss->small_sess_ == nullptr) {
      vss->small_sess_ = small_sess;
    }
    if (big_sess != nullptr && vss->big_sess_ == nullptr) {
      vss->big_sess_ = big_sess;
    }
    by_lls_.Bind(lls.get(), sess);
    return OkStatus();
  }
  kernel().ChargeSessionCreate();
  auto created = NewSession<VipSizeSession>(*this, e.hlp, peer, e.ip_proto, e.rel_proto,
                                            small_sess, big_sess, Threshold());
  by_lls_.Bind(lls.get(), created);
  if (peer.has_value()) {
    active_.Bind(Key{*peer, e.ip_proto}, created);
  }
  ParticipantSet up;
  up.local.ip_proto = e.ip_proto;
  up.local.rel_proto = e.rel_proto;
  up.peer.host = peer;
  return e.hlp->OpenDoneUp(*this, created, up);
}

Status VipSizeProtocol::DoDemux(Session* lls, Message& msg) {
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  SessionRef sess = by_lls_.Resolve(lls);
  if (sess == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  return sess->Pop(msg, lls);
}

// ---------------------------------------------------------------------------
// VipSizeSession
// ---------------------------------------------------------------------------

VipSizeSession::VipSizeSession(VipSizeProtocol& owner, Protocol* hlp, std::optional<IpAddr> peer,
                               IpProtoNum ip_proto, RelProtoNum rel_proto, SessionRef small_sess,
                               SessionRef big_sess, size_t threshold)
    : Session(owner, hlp),
      vs_(owner),
      peer_(peer),
      ip_proto_(ip_proto),
      rel_proto_(rel_proto),
      small_sess_(std::move(small_sess)),
      big_sess_(std::move(big_sess)),
      threshold_(threshold) {}

Status VipSizeSession::EnsureSmall() {
  if (small_sess_ != nullptr) {
    return OkStatus();
  }
  if (!peer_.has_value()) {
    return ErrStatus(StatusCode::kUnreachable);
  }
  ParticipantSet parts;
  parts.local.ip_proto = ip_proto_;
  parts.peer.host = *peer_;
  Result<SessionRef> r = vs_.small()->Open(vs_, parts);
  if (!r.ok()) {
    return r.status();
  }
  small_sess_ = *r;
  vs_.by_lls_.Bind(small_sess_.get(), Ref());
  return OkStatus();
}

Status VipSizeSession::EnsureBig() {
  if (big_sess_ != nullptr) {
    return OkStatus();
  }
  if (!peer_.has_value()) {
    return ErrStatus(StatusCode::kUnreachable);
  }
  ParticipantSet parts;
  parts.local.rel_proto = rel_proto_;
  parts.peer.host = *peer_;
  Result<SessionRef> r = vs_.big()->Open(vs_, parts);
  if (!r.ok()) {
    return r.status();
  }
  big_sess_ = *r;
  vs_.by_lls_.Bind(big_sess_.get(), Ref());
  return OkStatus();
}

Status VipSizeSession::DoPush(Message& msg) {
  // The per-message cost of VIP_SIZE: one length test.
  kernel().Charge(Usec(2));
  if (msg.length() <= threshold_) {
    if (Status s = EnsureSmall(); !s.ok()) {
      return s;
    }
    return small_sess_->Push(msg);
  }
  if (Status s = EnsureBig(); !s.ok()) {
    return s;
  }
  return big_sess_->Push(msg);
}

Status VipSizeSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status VipSizeSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      // The bulk path makes the session effectively unbounded up to what
      // FRAGMENT can carry.
      return vs_.big()->Control(ControlOp::kGetMaxPacket, args);
    case ControlOp::kGetOptPacket:
      args.u64 = threshold_;
      return OkStatus();
    case ControlOp::kGetPeerHost:
      if (peer_.has_value()) {
        args.ip = *peer_;
        return OkStatus();
      }
      return ErrStatus(StatusCode::kNotFound);
    case ControlOp::kGetMyHost:
      args.ip = kernel().ip_addr();
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
