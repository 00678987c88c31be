#include "src/proto/vip.h"

namespace xk {

// ---------------------------------------------------------------------------
// VipProtocol
// ---------------------------------------------------------------------------

VipProtocol::VipProtocol(Kernel& kernel, Protocol* eth, Protocol* ip, ArpProtocol* arp,
                         std::string name)
    : Protocol(kernel, std::move(name), {eth, ip}),
      arp_(arp),
      active_(*this),
      passive_(*this),
      by_lls_(*this) {
  MarkIdleCapable();
}

size_t VipProtocol::EthMtu() {
  ControlArgs args;
  return eth()->Control(ControlOp::kGetMaxPacket, args).ok() ? args.u64 : 1500;
}

Result<SessionRef> VipProtocol::FinishOpen(Protocol& hlp, IpAddr peer, IpProtoNum proto,
                                           std::optional<EthAddr> local_eth, uint64_t max_send) {
  const size_t eth_mtu = EthMtu();
  SessionRef eth_sess;
  SessionRef ip_sess;

  if (local_eth.has_value()) {
    // Destination is on the local Ethernet: map the protocol number onto the
    // reserved type range and open an ETH session.
    ParticipantSet eparts;
    eparts.local.eth_type = VipEthTypeFor(proto);
    eparts.peer.eth = *local_eth;
    Result<SessionRef> r = eth()->Open(*this, eparts);
    if (!r.ok()) {
      return r.status();
    }
    eth_sess = *r;
  }
  if (!local_eth.has_value() || max_send > eth_mtu) {
    // Off-link destination, or the client may send messages the local wire
    // cannot carry: open an IP session (possibly in addition to ETH).
    ParticipantSet iparts;
    iparts.local.ip_proto = proto;
    iparts.peer.host = peer;
    Result<SessionRef> r = ip()->Open(*this, iparts);
    if (!r.ok()) {
      return r.status();
    }
    ip_sess = *r;
  }

  kernel().ChargeSessionCreate();
  auto sess = pool_.Create(*this, &hlp, std::optional<IpAddr>(peer), proto, eth_sess, ip_sess,
                           eth_mtu);
  TrackIdle(*sess);
  active_.Bind(Key{peer, proto}, sess);
  if (eth_sess != nullptr) {
    by_lls_.Bind(eth_sess.get(), sess);
  }
  if (ip_sess != nullptr) {
    by_lls_.Bind(ip_sess.get(), sess);
  }
  return SessionRef(sess);
}

Result<SessionRef> VipProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.ip_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const IpAddr peer = *parts.peer.host;
  const IpProtoNum proto = *parts.local.ip_proto;
  if (SessionRef cached = active_.Resolve(Key{peer, proto})) {
    cached->set_hlp(&hlp);
    return cached;
  }
  // "VIP asks the invoking protocol about the size of messages it expects the
  // underlying protocol to support using a control operation."
  ControlArgs args;
  uint64_t max_send = UINT64_MAX;
  if (hlp.Control(ControlOp::kGetMaxSendSize, args).ok()) {
    max_send = args.u64;
  }
  // "VIP next decides if the destination host is reachable via the ethernet
  // by trying to resolve the IP address using ARP." Synchronous open uses the
  // cache only; OpenAsync covers the cold-cache case.
  kernel().ChargeMapResolve();
  return FinishOpen(hlp, peer, proto, arp_->Lookup(peer), max_send);
}

void VipProtocol::OpenAsync(Protocol& hlp, const ParticipantSet& parts, OpenCallback done) {
  if (!parts.peer.host.has_value() || !parts.local.ip_proto.has_value()) {
    done(ErrStatus(StatusCode::kInvalidArgument));
    return;
  }
  const IpAddr peer = *parts.peer.host;
  const IpProtoNum proto = *parts.local.ip_proto;
  if (SessionRef cached = active_.Resolve(Key{peer, proto})) {
    cached->set_hlp(&hlp);
    done(cached);
    return;
  }
  ControlArgs args;
  uint64_t max_send = UINT64_MAX;
  if (hlp.Control(ControlOp::kGetMaxSendSize, args).ok()) {
    max_send = args.u64;
  }
  // Cold cache: actually try ARP on the wire. Failure to resolve means the
  // destination is not on the local network -- fall back to IP.
  Protocol* hlp_ptr = &hlp;
  arp_->Resolve(peer, [this, hlp_ptr, peer, proto, max_send, done](Result<EthAddr> r) {
    std::optional<EthAddr> local_eth;
    if (r.ok()) {
      local_eth = *r;
    }
    done(FinishOpen(*hlp_ptr, peer, proto, local_eth, max_send));
  });
}

Status VipProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.ip_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const IpProtoNum proto = *parts.local.ip_proto;
  Protocol* existing = nullptr;
  if (!passive_.TryBind(proto, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(proto, &hlp);  // idempotent re-enable recharges, as before
  }
  // Enable both delivery paths: the mapped Ethernet type and the IP protocol.
  ParticipantSet eparts;
  eparts.local.eth_type = VipEthTypeFor(proto);
  Status es = eth()->OpenEnable(*this, eparts);
  ParticipantSet iparts;
  iparts.local.ip_proto = proto;
  Status is = ip()->OpenEnable(*this, iparts);
  return es.ok() ? is : es;
}

Status VipProtocol::OpenDoneUp(Protocol& llp, SessionRef lls, const ParticipantSet& parts) {
  // A lower protocol passively created `lls` for traffic we enabled. Work out
  // which protocol number it serves and wire a VIP session around it.
  IpProtoNum proto = 0;
  SessionRef eth_sess;
  SessionRef ip_sess;
  std::optional<IpAddr> peer = parts.peer.host;
  if (parts.local.eth_type.has_value()) {
    proto = static_cast<IpProtoNum>(*parts.local.eth_type - kEthTypeVipBase);
    eth_sess = lls;
    if (!peer.has_value() && parts.peer.eth.has_value()) {
      peer = arp_->ReverseLookup(*parts.peer.eth);
    }
  } else if (parts.local.ip_proto.has_value()) {
    proto = *parts.local.ip_proto;
    ip_sess = lls;
  } else {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  (void)llp;
  Protocol* hlp = passive_.Resolve(proto);
  if (hlp == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  kernel().ChargeSessionCreate();
  auto sess = pool_.Create(*this, hlp, peer, proto, eth_sess, ip_sess, EthMtu());
  TrackIdle(*sess);
  by_lls_.Bind(lls.get(), sess);
  if (peer.has_value()) {
    active_.Bind(Key{*peer, proto}, sess);
  }
  ParticipantSet up;
  up.local.ip_proto = proto;
  up.peer.host = peer;
  return hlp->OpenDoneUp(*this, sess, up);
}

Status VipProtocol::DoDemux(Session* lls, Message& msg) {
  // VIP is header-less: nothing to pop. Find the VIP session wrapped around
  // the delivering lower session.
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  SessionRef sess = by_lls_.Resolve(lls);
  if (sess == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  return sess->Pop(msg, lls);
}

Status VipProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      // VIP offers IP semantics: the IP maximum.
      return ip()->Control(ControlOp::kGetMaxPacket, args);
    case ControlOp::kGetOptPacket:
      // Optimal = what the local wire carries without fragmentation.
      return eth()->Control(ControlOp::kGetMaxPacket, args);
    default:
      return Protocol::DoControl(op, args);
  }
}

bool VipProtocol::EvictSession(Session& s) {
  auto& vs = static_cast<VipSession&>(s);
  // Count the references this protocol's own maps hold; anything beyond those
  // (an upper session using us as its lower, a caller mid-open) vetoes.
  uint32_t expected = 0;
  if (vs.eth_sess_ != nullptr && by_lls_.Peek(vs.eth_sess_.get()).get() == &vs) {
    ++expected;
  }
  if (vs.ip_sess_ != nullptr && by_lls_.Peek(vs.ip_sess_.get()).get() == &vs) {
    ++expected;
  }
  bool active_bound = false;
  if (vs.peer_.has_value() && active_.Peek(Key{*vs.peer_, vs.proto_}).get() == &vs) {
    active_bound = true;
    ++expected;
  }
  if (vs.refs() > expected) {
    return false;
  }
  // Pin: dropping the map references one by one must not destroy the session
  // mid-function; the pin releases (and ~VipSession runs) on return.
  SessionRef pin(&vs);
  if (vs.eth_sess_ != nullptr) {
    by_lls_.Unbind(vs.eth_sess_.get());
  }
  if (vs.ip_sess_ != nullptr) {
    by_lls_.Unbind(vs.ip_sess_.get());
  }
  if (active_bound) {
    active_.Unbind(Key{*vs.peer_, vs.proto_});
  }
  return true;
}

// ---------------------------------------------------------------------------
// VipSession
// ---------------------------------------------------------------------------

VipSession::VipSession(VipProtocol& owner, Protocol* hlp, std::optional<IpAddr> peer,
                       IpProtoNum proto, SessionRef eth_sess, SessionRef ip_sess, size_t eth_mtu)
    : Session(owner, hlp),
      vip_(owner),
      peer_(peer),
      proto_(proto),
      eth_sess_(std::move(eth_sess)),
      ip_sess_(std::move(ip_sess)),
      eth_mtu_(eth_mtu) {}

Status VipSession::DoPush(Message& msg) {
  // "VIP's push operation inspects the length of the message... the only
  // overhead it adds to message delivery is the cost of the single test."
  kernel().Charge(Usec(2));
  if (eth_sess_ != nullptr && msg.length() <= eth_mtu_) {
    return eth_sess_->Push(msg);
  }
  if (ip_sess_ == nullptr) {
    // Message too large for the wire and no IP path was opened: open one
    // lazily if we know the peer (can happen on passively created sessions).
    if (!peer_.has_value()) {
      return ErrStatus(StatusCode::kTooBig);
    }
    ParticipantSet iparts;
    iparts.local.ip_proto = proto_;
    iparts.peer.host = *peer_;
    Result<SessionRef> r = vip_.ip()->Open(vip_, iparts);
    if (!r.ok()) {
      return r.status();
    }
    ip_sess_ = *r;
    vip_.by_lls_.Bind(ip_sess_.get(), Ref());
  }
  return ip_sess_->Push(msg);
}

Status VipSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status VipSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      if (ip_sess_ != nullptr) {
        return ip_sess_->Control(op, args);
      }
      args.u64 = eth_mtu_;
      return OkStatus();
    case ControlOp::kGetOptPacket:
      // Optimal size: whatever avoids fragmentation on the chosen path.
      if (eth_sess_ != nullptr) {
        args.u64 = eth_mtu_;
        return OkStatus();
      }
      return ip_sess_->Control(op, args);
    case ControlOp::kGetPeerHost:
      if (peer_.has_value()) {
        args.ip = *peer_;
        return OkStatus();
      }
      return ErrStatus(StatusCode::kNotFound);
    case ControlOp::kGetMyHost:
      args.ip = kernel().ip_addr();
      return OkStatus();
    case ControlOp::kGetMyProto:
      args.u64 = proto_;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
