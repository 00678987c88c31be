#include "src/rpc/sun/request_reply.h"

#include "src/core/wire.h"

namespace xk {

namespace {
constexpr uint8_t kTypeCall = 1;
constexpr uint8_t kTypeReply = 2;
}  // namespace

// ---------------------------------------------------------------------------
// RequestReplyProtocol
// ---------------------------------------------------------------------------

RequestReplyProtocol::RequestReplyProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}), active_(*this), passive_(*this) {
  ParticipantSet enable;
  enable.local.ip_proto = kIpProtoSunRpc;
  enable.local.rel_proto = kRelProtoRequestReply;  // when FRAGMENT is below
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<SessionRef> RequestReplyProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Key key{*parts.peer.host, *parts.local.rel_proto};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  ParticipantSet lparts;
  lparts.peer.host = *parts.peer.host;
  lparts.local.ip_proto = kIpProtoSunRpc;
  lparts.local.rel_proto = kRelProtoRequestReply;
  Result<SessionRef> lower_sess = lower(0)->Open(*this, lparts);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = NewSession<RequestReplySession>(*this, &hlp, *parts.peer.host,
                                              *parts.local.rel_proto, *lower_sess);
  active_.Bind(key, sess);
  return SessionRef(sess);
}

Status RequestReplyProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  Protocol* existing = nullptr;
  if (!passive_.TryBind(*parts.local.rel_proto, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(*parts.local.rel_proto, &hlp);  // re-enable recharges
  }
  return OkStatus();
}

Status RequestReplyProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  const uint8_t type = r.GetU8();
  const uint32_t xid = r.GetU32();
  const RelProtoNum proto = r.GetU32();

  IpAddr peer;
  if (lls != nullptr) {
    ControlArgs args;
    if (lls->Control(ControlOp::kGetPeerHost, args).ok()) {
      peer = args.ip;
    }
  }
  const Key key{peer, proto};
  SessionRef sess = active_.Resolve(key);
  if (sess == nullptr) {
    Protocol* hlp = passive_.Resolve(proto);
    if (hlp == nullptr || lls == nullptr) {
      return ErrStatus(StatusCode::kNotFound);
    }
    kernel().ChargeSessionCreate();
    auto created = NewSession<RequestReplySession>(*this, hlp, peer, proto, lls->Ref());
    active_.Bind(key, created);
    ParticipantSet up;
    up.local.rel_proto = proto;
    up.peer.host = peer;
    Status s = hlp->OpenDoneUp(*this, created, up);
    if (!s.ok()) {
      active_.Unbind(key);
      return s;
    }
    sess = created;
  }
  return static_cast<RequestReplySession*>(sess.get())->HandlePacket(type, xid, msg, lls);
}

Status RequestReplyProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxSendSize:
      return lower(0)->Control(ControlOp::kGetMaxPacket, args);
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// RequestReplySession
// ---------------------------------------------------------------------------

RequestReplySession::RequestReplySession(RequestReplyProtocol& owner, Protocol* hlp, IpAddr peer,
                                         RelProtoNum proto, SessionRef lower)
    : Session(owner, hlp), rr_(owner), peer_(peer), proto_(proto), lower_(std::move(lower)) {}

void RequestReplySession::Send(uint8_t type, uint32_t xid, const Message& payload) {
  uint8_t raw[RequestReplyProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU8(type);
  w.PutU32(xid);
  w.PutU32(proto_);
  Message pkt = payload;
  kernel().ChargeHdrStore(RequestReplyProtocol::kHeaderSize);
  pkt.PushHeader(raw);
  (void)lower_->Push(pkt);
}

void RequestReplySession::ArmTimer(uint32_t xid) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) {
    return;
  }
  it->second.timer =
      kernel().SetTimer(RequestReplyProtocol::kTimeout, [this, xid]() { OnTimeout(xid); });
}

void RequestReplySession::OnTimeout(uint32_t xid) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) {
    return;
  }
  PendingCall& call = it->second;
  // Deadline check before the retry check: retransmitting a call nobody is
  // waiting for anymore only adds load. Sun RPC has no deadline wire format,
  // so this is purely the client giving up (the server still runs zero-or-
  // more semantics on whatever already reached it).
  if (call.deadline != 0 && kernel().now() >= call.deadline) {
    pending_.erase(it);
    if (hlp() != nullptr) {
      hlp()->SessionError(*this, ErrStatus(StatusCode::kDeadlineExceeded), nullptr);
    }
    return;
  }
  if (call.retries >= RequestReplyProtocol::kRetryLimit) {
    pending_.erase(it);
    if (hlp() != nullptr) {
      hlp()->SessionError(*this, ErrStatus(StatusCode::kTimeout), nullptr);
    }
    return;
  }
  ++call.retries;
  ++rr_.stats_.retransmissions;
  // Zero-or-more semantics: the retransmission may be executed AGAIN by the
  // server; nothing here (or there) prevents that.
  Send(kTypeCall, xid, call.request);
  ArmTimer(xid);
}

Status RequestReplySession::DoPush(Message& msg) {
  if (executing_xid_.has_value()) {
    // Reply to the request currently being executed.
    const uint32_t xid = *executing_xid_;
    executing_xid_.reset();
    Send(kTypeReply, xid, msg);
    return OkStatus();
  }
  const uint32_t xid = next_xid_++;
  ++rr_.stats_.calls_sent;
  PendingCall call;
  call.request = msg;
  call.deadline = msg.deadline();
  pending_.emplace(xid, std::move(call));
  Send(kTypeCall, xid, msg);
  ArmTimer(xid);
  kernel().ChargeSemOp();
  return OkStatus();
}

Status RequestReplySession::HandlePacket(uint8_t type, uint32_t xid, Message& payload,
                                         Session* lls) {
  if (lls != nullptr) {
    lower_ = lls->Ref();
  }
  if (type == kTypeCall) {
    // Zero-or-more: every arriving call is executed, duplicates included.
    ++rr_.stats_.requests_executed;
    executing_xid_ = xid;
    kernel().ChargeSemOp();
    kernel().ChargeProcessSwitch();
    return DeliverUp(payload);
  }
  if (type == kTypeReply) {
    auto it = pending_.find(xid);
    if (it == pending_.end()) {
      return OkStatus();  // duplicate reply from a re-execution
    }
    kernel().CancelTimer(it->second.timer);
    pending_.erase(it);
    kernel().ChargeSemOp();
    kernel().ChargeProcessSwitch();
    return DeliverUp(payload);
  }
  return ErrStatus(StatusCode::kInvalidArgument);
}

Status RequestReplySession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status RequestReplySession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetPeerHost:
      args.ip = peer_;
      return OkStatus();
    case ControlOp::kGetMyProto:
      args.u64 = proto_;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
