#include "src/proto/udp.h"

#include "src/core/wire.h"
#include "src/tools/checksum.h"

namespace xk {

namespace {

// Pseudo-header + UDP header + payload checksum (RFC 768).
uint16_t UdpChecksum(IpAddr src, IpAddr dst, uint16_t src_port, uint16_t dst_port,
                     const Message& payload) {
  InternetChecksum c;
  c.AddU32(src.value());
  c.AddU32(dst.value());
  c.AddU16(kIpProtoUdp);
  const uint16_t udp_len = static_cast<uint16_t>(UdpProtocol::kHeaderSize + payload.length());
  c.AddU16(udp_len);
  c.AddU16(src_port);
  c.AddU16(dst_port);
  c.AddU16(udp_len);
  c.AddU16(0);  // checksum field itself
  std::vector<uint8_t> body = payload.Flatten();
  c.Add(body);
  return c.Finalize();
}

}  // namespace

// ---------------------------------------------------------------------------
// UdpProtocol
// ---------------------------------------------------------------------------

UdpProtocol::UdpProtocol(Kernel& kernel, Protocol* ip, std::string name)
    : Protocol(kernel, std::move(name), {ip}), active_(*this), passive_(*this) {
  MarkIdleCapable();
  ParticipantSet enable;
  enable.local.ip_proto = kIpProtoUdp;
  (void)lower(0)->OpenEnable(*this, enable);
}

bool UdpProtocol::EvictSession(Session& s) {
  auto& us = static_cast<UdpSession&>(s);
  // Only the active map may hold the session; an anchor protocol caching its
  // own ref (or a call still walking the stack) vetoes eviction.
  if (us.refs() > 1) {
    return false;
  }
  active_.Unbind(Key{us.peer_, us.peer_port_, us.local_port_});
  return true;
}

Result<SessionRef> UdpProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.peer.port.has_value() ||
      !parts.local.port.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Key key{*parts.peer.host, *parts.peer.port, *parts.local.port};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  ParticipantSet lparts;
  lparts.local.ip_proto = kIpProtoUdp;
  lparts.peer.host = *parts.peer.host;
  Result<SessionRef> lower_sess = lower(0)->Open(*this, lparts);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = pool_.Create(*this, &hlp, *lower_sess, *parts.peer.host, *parts.peer.port,
                           *parts.local.port);
  active_.Bind(key, sess);
  TrackIdle(*sess);
  return SessionRef(sess);
}

Status UdpProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.port.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  Protocol* existing = nullptr;
  if (!passive_.TryBind(*parts.local.port, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(*parts.local.port, &hlp);  // idempotent re-enable recharges
  }
  return OkStatus();
}

Status UdpProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  const uint16_t src_port = r.GetU16();
  const uint16_t dst_port = r.GetU16();
  const uint16_t udp_len = r.GetU16();
  const uint16_t wire_cks = r.GetU16();
  if (udp_len < kHeaderSize || udp_len - kHeaderSize > msg.length()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  msg.Truncate(udp_len - kHeaderSize);

  IpAddr src, dst;
  if (lls != nullptr) {
    ControlArgs args;
    if (lls->Control(ControlOp::kGetPeerHost, args).ok()) {
      src = args.ip;
    }
    if (lls->Control(ControlOp::kGetMyHost, args).ok()) {
      dst = args.ip;
    }
  }
  if (checksum_enabled_ && wire_cks != 0) {
    kernel().ChargeChecksum(msg.length() + kHeaderSize);
    if (UdpChecksum(src, dst, src_port, dst_port, msg) != wire_cks) {
      ++checksum_failures_;
      return ErrStatus(StatusCode::kInvalidArgument);
    }
  }

  const Key key{src, src_port, dst_port};
  SessionRef sess = active_.Resolve(key);
  if (sess == nullptr) {
    Protocol* hlp = passive_.Resolve(dst_port);
    if (hlp == nullptr) {
      kernel().Tracef(2, "udp: no binding for port %u", dst_port);
      return ErrStatus(StatusCode::kNotFound);
    }
    if (lls == nullptr) {
      return ErrStatus(StatusCode::kInvalidArgument);
    }
    kernel().ChargeSessionCreate();
    auto created = pool_.Create(*this, hlp, lls->Ref(), src, src_port, dst_port);
    active_.Bind(key, created);
    TrackIdle(*created);
    ParticipantSet parts;
    parts.local.port = dst_port;
    parts.peer.host = src;
    parts.peer.port = src_port;
    Status s = hlp->OpenDoneUp(*this, created, parts);
    if (!s.ok()) {
      active_.Unbind(key);
      return s;
    }
    sess = created;
  }
  return sess->Pop(msg, lls);
}

Status UdpProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxSendSize: {
      // "UDP sends arbitrarily large messages (i.e., it depends on IP to
      // fragment large messages)" -- Section 3.1.
      ControlArgs sub;
      args.u64 = lower(0)->Control(ControlOp::kGetMaxPacket, sub).ok() ? sub.u64 : 65515;
      return OkStatus();
    }
    default:
      return Protocol::DoControl(op, args);
  }
}

// ---------------------------------------------------------------------------
// UdpSession
// ---------------------------------------------------------------------------

UdpSession::UdpSession(UdpProtocol& owner, Protocol* hlp, SessionRef lower, IpAddr peer,
                       uint16_t peer_port, uint16_t local_port)
    : Session(owner, hlp),
      udp_(owner),
      lower_(std::move(lower)),
      peer_(peer),
      peer_port_(peer_port),
      local_port_(local_port) {}

Status UdpSession::DoPush(Message& msg) {
  uint16_t cks = 0;
  if (udp_.checksum_enabled()) {
    IpAddr src = kernel().ip_addr();
    ControlArgs args;
    if (lower_->Control(ControlOp::kGetMyHost, args).ok()) {
      src = args.ip;
    }
    kernel().ChargeChecksum(msg.length() + UdpProtocol::kHeaderSize);
    cks = UdpChecksum(src, peer_, local_port_, peer_port_, msg);
  }
  uint8_t raw[UdpProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU16(local_port_);
  w.PutU16(peer_port_);
  w.PutU16(static_cast<uint16_t>(UdpProtocol::kHeaderSize + msg.length()));
  w.PutU16(cks);
  kernel().ChargeHdrStore(UdpProtocol::kHeaderSize);
  msg.PushHeader(raw);
  return lower_->Push(msg);
}

Status UdpSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status UdpSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMyPort:
      args.u64 = local_port_;
      return OkStatus();
    case ControlOp::kGetPeerPort:
      args.u64 = peer_port_;
      return OkStatus();
    case ControlOp::kGetPeerHost:
      args.ip = peer_;
      return OkStatus();
    case ControlOp::kGetMaxPacket: {
      ControlArgs sub;
      if (lower_->Control(ControlOp::kGetMaxPacket, sub).ok()) {
        args.u64 = sub.u64 - UdpProtocol::kHeaderSize;
        return OkStatus();
      }
      return ErrStatus(StatusCode::kError);
    }
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
