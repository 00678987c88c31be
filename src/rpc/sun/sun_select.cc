#include "src/rpc/sun/sun_select.h"

#include "src/core/wire.h"

namespace xk {

namespace {
// Participant encoding for Sun procedure addresses: peer.rel_proto = program,
// peer.channel = version, peer.command = procedure.
}  // namespace

ParticipantSet SunProcAddress(IpAddr server, uint32_t prog, uint16_t vers, uint16_t proc) {
  ParticipantSet parts;
  parts.peer.host = server;
  parts.peer.rel_proto = prog;
  parts.peer.channel = vers;
  parts.peer.command = proc;
  return parts;
}

ParticipantSet SunProgService(uint32_t prog, uint16_t vers) {
  ParticipantSet parts;
  parts.local.rel_proto = prog;
  parts.local.channel = vers;
  return parts;
}

// ---------------------------------------------------------------------------
// SunSelectProtocol
// ---------------------------------------------------------------------------

SunSelectProtocol::SunSelectProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}),
      active_(*this),
      passive_(*this),
      server_sessions_(*this) {
  ParticipantSet enable;
  enable.local.rel_proto = kRelProtoSunSelect;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<SessionRef> SunSelectProtocol::LowerFor(IpAddr server) {
  ParticipantSet parts;
  parts.peer.host = server;
  parts.local.rel_proto = kRelProtoSunSelect;
  return lower(0)->Open(*this, parts);
}

Result<SessionRef> SunSelectProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.peer.rel_proto.has_value() ||
      !parts.peer.channel.has_value() || !parts.peer.command.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Key key{*parts.peer.host, *parts.peer.rel_proto,
                static_cast<uint16_t>(*parts.peer.channel),
                static_cast<uint16_t>(*parts.peer.command)};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  Result<SessionRef> lower_sess = LowerFor(*parts.peer.host);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = NewSession<SunSelectSession>(
      *this, &hlp, *parts.peer.host, *parts.peer.rel_proto,
      static_cast<uint16_t>(*parts.peer.channel), static_cast<uint16_t>(*parts.peer.command));
  active_.Bind(key, sess);
  return SessionRef(sess);
}

Status SunSelectProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.local.rel_proto.has_value() || !parts.local.channel.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const ProgKey key{*parts.local.rel_proto, static_cast<uint16_t>(*parts.local.channel)};
  Protocol* existing = nullptr;
  if (!passive_.TryBind(key, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(key, &hlp);  // idempotent re-enable recharges, as before
  }
  return OkStatus();
}

Status SunSelectProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  const uint32_t prog = r.GetU32();
  const uint16_t vers = r.GetU16();
  const uint16_t proc = r.GetU16();
  const uint8_t status = r.GetU8();
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }

  IpAddr peer;
  ControlArgs args;
  if (lls->Control(ControlOp::kGetPeerHost, args).ok()) {
    peer = args.ip;
  }
  const Key key{peer, prog, vers, proc};

  // A reply? Pair with the oldest waiting call for this procedure.
  if (auto wit = waiting_.find(key); wit != waiting_.end() && !wit->second.empty()) {
    SessionRef caller = wit->second.front();
    wit->second.pop_front();
    if (wit->second.empty()) {
      waiting_.erase(wit);
    }
    kernel().ChargeMapResolve();
    if (status != kStatusOk) {
      if (caller->hlp() != nullptr) {
        caller->hlp()->SessionError(*caller, ErrStatus(StatusCode::kNotFound), nullptr);
      }
      return OkStatus();
    }
    return caller->Pop(msg, lls);
  }

  // A call: map (prog, vers) onto a registered service.
  Protocol* hlp = passive_.Resolve(ProgKey{prog, vers});
  if (hlp == nullptr) {
    ++stats_.prog_unavail;
    uint8_t reply_raw[kHeaderSize];
    WireWriter w(reply_raw);
    w.PutU32(prog);
    w.PutU16(vers);
    w.PutU16(proc);
    w.PutU8(kStatusProgUnavail);
    Message reply;
    kernel().ChargeHdrStore(kHeaderSize);
    reply.PushHeader(reply_raw);
    return lls->Push(reply);
  }
  SessionRef server_sess = server_sessions_.Resolve(lls);
  if (server_sess == nullptr) {
    kernel().ChargeSessionCreate();
    server_sess = NewSession<SunSelectServerSession>(*this, hlp, lls->Ref());
    server_sessions_.Bind(lls, server_sess);
    ParticipantSet up;
    up.local.rel_proto = prog;
    up.local.channel = vers;
    up.local.command = proc;
    up.peer.host = peer;
    Status s = hlp->OpenDoneUp(*this, server_sess, up);
    if (!s.ok()) {
      server_sessions_.Unbind(lls);
      return s;
    }
  }
  auto* ss = static_cast<SunSelectServerSession*>(server_sess.get());
  ss->SetCurrent(prog, vers, proc);
  ss->set_hlp(hlp);
  return server_sess->Pop(msg, lls);
}

void SunSelectProtocol::SessionError(Session& lls, Status error, const Message* request) {
  (void)request;
  // A lower-level call failed. Fail the oldest waiter bound to that lower
  // session's peer (all procedures share the lower session, so fail them
  // all -- the conservative interpretation).
  ControlArgs args;
  IpAddr peer;
  if (lls.Control(ControlOp::kGetPeerHost, args).ok()) {
    peer = args.ip;
  }
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    if (std::get<0>(it->first) == peer) {
      for (SessionRef& caller : it->second) {
        if (caller->hlp() != nullptr) {
          caller->hlp()->SessionError(*caller, error, nullptr);
        }
      }
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// SunSelectSession
// ---------------------------------------------------------------------------

SunSelectSession::SunSelectSession(SunSelectProtocol& owner, Protocol* hlp, IpAddr server,
                                   uint32_t prog, uint16_t vers, uint16_t proc)
    : Session(owner, hlp), sel_(owner), server_(server), prog_(prog), vers_(vers), proc_(proc) {}

Status SunSelectSession::DoPush(Message& msg) {
  Result<SessionRef> lower = sel_.LowerFor(server_);
  if (!lower.ok()) {
    return lower.status();
  }
  uint8_t raw[SunSelectProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU32(prog_);
  w.PutU16(vers_);
  w.PutU16(proc_);
  w.PutU8(SunSelectProtocol::kStatusOk);
  kernel().ChargeHdrStore(SunSelectProtocol::kHeaderSize);
  msg.PushHeader(raw);
  sel_.waiting_[SunSelectProtocol::Key{server_, prog_, vers_, proc_}].push_back(Ref());
  kernel().ChargeMapBind();
  return (*lower)->Push(msg);
}

Status SunSelectSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status SunSelectSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetPeerHost:
      args.ip = server_;
      return OkStatus();
    case ControlOp::kGetLastCommand:
      args.u64 = proc_;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// SunSelectServerSession
// ---------------------------------------------------------------------------

SunSelectServerSession::SunSelectServerSession(SunSelectProtocol& owner, Protocol* hlp,
                                               SessionRef lower)
    : Session(owner, hlp), sel_(owner), lower_(std::move(lower)) {}

void SunSelectServerSession::SetCurrent(uint32_t prog, uint16_t vers, uint16_t proc) {
  prog_ = prog;
  vers_ = vers;
  proc_ = proc;
}

Status SunSelectServerSession::DoPush(Message& msg) {
  uint8_t raw[SunSelectProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU32(prog_);
  w.PutU16(vers_);
  w.PutU16(proc_);
  w.PutU8(SunSelectProtocol::kStatusOk);
  kernel().ChargeHdrStore(SunSelectProtocol::kHeaderSize);
  msg.PushHeader(raw);
  return lower_->Push(msg);
}

Status SunSelectServerSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status SunSelectServerSession::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetLastCommand) {
    args.u64 = proc_;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

}  // namespace xk
