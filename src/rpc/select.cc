#include "src/rpc/select.h"

#include "src/core/wire.h"
#include "src/trace/trace.h"

namespace xk {

// ---------------------------------------------------------------------------
// SelectProtocol
// ---------------------------------------------------------------------------

SelectProtocol::SelectProtocol(Kernel& kernel, Protocol* lower, std::string name,
                               RelProtoNum rel_proto)
    : Protocol(kernel, std::move(name), {lower}),
      rel_proto_(rel_proto),
      active_(*this),
      passive_(*this),
      calls_(*this),
      server_sessions_(*this) {
  MarkIdleCapable();
  ParticipantSet enable;
  enable.local.rel_proto = rel_proto_;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

bool SelectProtocol::EvictSession(Session& s) {
  if (auto* client = dynamic_cast<SelectSession*>(&s)) {
    // CanEvict vetoed outstanding calls; anything else holding the session
    // (the anchor's cached ref) vetoes here.
    if (client->refs() > 1) {
      return false;
    }
    active_.Unbind(Key{client->server_, client->command_});
    return true;
  }
  auto* server = static_cast<SelectServerSession*>(&s);
  if (server->refs() > 1) {
    return false;
  }
  server_sessions_.Unbind(server->channel_.get());
  return true;
}

Result<SelectProtocol::ChannelPool*> SelectProtocol::PoolFor(IpAddr server) {
  auto it = pools_.find(server);
  if (it != pools_.end()) {
    return &it->second;
  }
  // First contact with this server: open the fixed set of channels once and
  // cache them for every subsequent call ("caching open sessions at all three
  // levels" -- the paper's first layering pitfall).
  ChannelPool pool;
  pool.available = std::make_unique<XSemaphore>(kernel(), kNumChannels);
  for (int i = 0; i < kNumChannels; ++i) {
    ParticipantSet parts;
    parts.peer.host = server;
    parts.local.channel = static_cast<uint16_t>(i);
    parts.local.rel_proto = rel_proto_;
    Result<SessionRef> chan = lower(0)->Open(*this, parts);
    if (!chan.ok()) {
      return chan.status();
    }
    pool.channels.push_back(*chan);
    pool.busy.push_back(false);
  }
  return &pools_.emplace(server, std::move(pool)).first->second;
}

void SelectProtocol::ReleaseChannel(ChannelPool& pool, size_t index) {
  pool.busy[index] = false;
  pool.available->V();
}

int SelectProtocol::free_channels(IpAddr server) const {
  auto it = pools_.find(server);
  if (it == pools_.end()) {
    return kNumChannels;
  }
  int n = 0;
  for (bool b : it->second.busy) {
    n += b ? 0 : 1;
  }
  return n;
}

Result<SessionRef> SelectProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.peer.command.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Key key{*parts.peer.host, *parts.peer.command};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  Result<ChannelPool*> pool = PoolFor(*parts.peer.host);
  if (!pool.ok()) {
    return pool.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = client_pool_.Create(*this, &hlp, *parts.peer.host, *parts.peer.command);
  active_.Bind(key, sess);
  TrackIdle(*sess);
  return SessionRef(sess);
}

Status SelectProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  const uint16_t command = parts.local.command.value_or(kAnyCommand);
  Protocol* existing = nullptr;
  if (!passive_.TryBind(command, &hlp, &existing)) {
    if (existing != &hlp) {
      return ErrStatus(StatusCode::kAlreadyExists);
    }
    passive_.Bind(command, &hlp);  // idempotent re-enable recharges, as before
  }
  return OkStatus();
}

Protocol* SelectProtocol::HlpForCommand(uint16_t command) {
  if (Protocol* exact = passive_.Resolve(command)) {
    return exact;
  }
  return passive_.Peek(kAnyCommand);
}

Status SelectProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  const uint8_t type = r.GetU8();
  const uint16_t command = r.GetU16();
  const uint8_t status = r.GetU8();
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }

  if (type == kTypeCall) {
    // Server side: map the command onto a procedure.
    Protocol* hlp = HlpForCommand(command);
    if (hlp == nullptr) {
      ++stats_.no_such_command;
      uint8_t reply_raw[kHeaderSize];
      WireWriter w(reply_raw);
      w.PutU8(kTypeReturn);
      w.PutU16(command);
      w.PutU8(kStatusNoSuchCommand);
      Message reply;
      kernel().ChargeHdrStore(kHeaderSize);
      reply.PushHeader(reply_raw);
      return lls->Push(reply);  // the channel is in_progress: this is its reply
    }
    SessionRef server_sess = server_sessions_.Resolve(lls);
    if (server_sess == nullptr) {
      kernel().ChargeSessionCreate();
      server_sess = server_pool_.Create(*this, hlp, lls->Ref());
      server_sessions_.Bind(lls, server_sess);
      TrackIdle(*server_sess);
      ParticipantSet up;
      up.local.command = command;
      Status s = hlp->OpenDoneUp(*this, server_sess, up);
      if (!s.ok()) {
        server_sessions_.Unbind(lls);
        return s;
      }
    }
    auto* ss = static_cast<SelectServerSession*>(server_sess.get());
    ss->set_last_command(command);
    ss->set_hlp(hlp);
    return server_sess->Pop(msg, lls);
  }

  if (type == kTypeReturn) {
    // Client side: match the reply to the call occupying this channel.
    SessionRef caller = calls_.Resolve(lls);
    if (caller == nullptr) {
      return ErrStatus(StatusCode::kNotFound);
    }
    return static_cast<SelectSession*>(caller.get())->CompleteCall(lls, status, msg);
  }
  return ErrStatus(StatusCode::kInvalidArgument);
}

void SelectProtocol::SessionError(Session& lls, Status error, const Message* request) {
  // A channel call failed (retransmissions exhausted, deadline, reject).
  // Release the channel and propagate to whoever was calling through it,
  // forwarding the request -- minus our header -- so multiplexed callers
  // above can tell WHICH call died.
  SessionRef caller = calls_.Take(&lls);
  if (caller == nullptr) {
    return;
  }
  auto* sess = static_cast<SelectSession*>(caller.get());
  auto it = pools_.find(sess->server());
  if (it != pools_.end()) {
    for (size_t i = 0; i < it->second.channels.size(); ++i) {
      if (it->second.channels[i].get() == &lls) {
        ReleaseChannel(it->second, i);
        break;
      }
    }
  }
  sess->CallFinished();
  if (sess->hlp() != nullptr) {
    if (request != nullptr && request->length() >= kHeaderSize) {
      Message req = *request;
      (void)req.Discard(kHeaderSize);
      sess->hlp()->SessionError(*sess, error, &req);
    } else {
      sess->hlp()->SessionError(*sess, error, nullptr);
    }
  }
}

Status SelectProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxSendSize:
      return lower(0)->Control(ControlOp::kGetMaxSendSize, args);
    default:
      return Protocol::DoControl(op, args);
  }
}

// ---------------------------------------------------------------------------
// SelectSession (client)
// ---------------------------------------------------------------------------

SelectSession::SelectSession(SelectProtocol& owner, Protocol* hlp, IpAddr server,
                             uint16_t command)
    : Session(owner, hlp), sel_(owner), server_(server), command_(command) {}

Status SelectSession::DoPush(Message& request) {
  Result<SelectProtocol::ChannelPool*> pool_r = sel_.PoolFor(server_);
  if (!pool_r.ok()) {
    return pool_r.status();
  }
  SelectProtocol::ChannelPool* pool = *pool_r;
  last_request_ = request;
  forward_hops_ = 0;
  ++outstanding_;  // pins the session against eviction until settled
  if (pool->available->count() == 0) {
    ++sel_.stats_.blocked_on_channel;
  }
  // Blocks (queues the continuation) if every channel is busy.
  queued_.push_back(request);
  pool->available->P([this, pool] {
    Message msg = TakeQueued();
    if (msg.deadline() != 0 && kernel().now() >= msg.deadline()) {
      // The deadline lapsed while this call queued for a free channel: shed
      // it here rather than spending a wire exchange on a dead call.
      pool->available->V();
      if (TraceSink* ts = kernel().trace_sink()) {
        ts->RecordEvent(kernel(), TraceOp::kGiveUp, sel_.name(), kernel().now(), 0, &msg, this, 0,
                        StatusCode::kDeadlineExceeded);
      }
      CallFinished();
      if (hlp() != nullptr) {
        hlp()->SessionError(*this, ErrStatus(StatusCode::kDeadlineExceeded), &msg);
      }
      return;
    }
    size_t index = 0;
    while (index < pool->busy.size() && pool->busy[index]) {
      ++index;
    }
    pool->busy[index] = true;
    SessionRef channel = pool->channels[index];
    sel_.calls_.Bind(channel.get(), Ref());

    uint8_t raw[SelectProtocol::kHeaderSize];
    WireWriter w(raw);
    w.PutU8(SelectProtocol::kTypeCall);
    w.PutU16(command_);
    w.PutU8(SelectProtocol::kStatusOk);
    kernel().ChargeHdrStore(SelectProtocol::kHeaderSize);
    msg.PushHeader(raw);
    Status pushed = channel->Push(msg);
    if (!pushed.ok()) {
      // Synchronous failure (e.g. the deadline lapsed while the header charge
      // ran): unwind through the normal call-error path so the channel is
      // released and the caller learns which call died, instead of leaking a
      // busy channel and a silent call.
      sel_.SessionError(*channel, pushed, &msg);
    }
  });
  return OkStatus();
}

Message SelectSession::TakeQueued() {
  Message msg = std::move(queued_[queued_head_++]);
  if (queued_head_ == queued_.size()) {
    queued_.clear();  // keeps the capacity
    queued_head_ = 0;
  } else if (queued_head_ * 2 >= queued_.size()) {
    // A queue that never drains would otherwise grow without bound.
    queued_.erase(queued_.begin(), queued_.begin() + static_cast<ptrdiff_t>(queued_head_));
    queued_head_ = 0;
  }
  return msg;
}

void SelectSession::CallFinished() {
  if (outstanding_ > 0) {
    --outstanding_;
  }
  // A sweep may have parked this session while the call pinned it; relink so
  // the now-idle session ages out normally.
  NoteActivity();
}

Status SelectSession::CompleteCall(Session* channel, uint8_t status, Message& reply) {
  CallFinished();
  // Unbind BEFORE releasing: V() may run a blocked caller inline, and that
  // caller immediately re-binds this channel to its own call.
  sel_.calls_.Unbind(channel);
  // Find the pool owning this channel. Usually it is this session's server's
  // pool, but a forwarded call's reply arrives on the forward target's pool.
  for (auto& [host, pool] : sel_.pools_) {
    bool found = false;
    for (size_t i = 0; i < pool.channels.size(); ++i) {
      if (pool.channels[i].get() == channel) {
        sel_.ReleaseChannel(pool, i);
        found = true;
        break;
      }
    }
    if (found) {
      break;
    }
  }
  if (status != SelectProtocol::kStatusOk) {
    if (hlp() != nullptr) {
      hlp()->SessionError(*this, ErrStatus(StatusCode::kNotFound), nullptr);
    }
    return OkStatus();
  }
  return DeliverUp(reply);
}

Status SelectSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status SelectSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetPeerHost:
      args.ip = server_;
      return OkStatus();
    case ControlOp::kGetLastCommand:
      args.u64 = command_;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// SelectServerSession
// ---------------------------------------------------------------------------

SelectServerSession::SelectServerSession(SelectProtocol& owner, Protocol* hlp,
                                         SessionRef channel)
    : Session(owner, hlp), sel_(owner), channel_(std::move(channel)) {}

Status SelectServerSession::DoPush(Message& msg) {
  uint8_t raw[SelectProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU8(SelectProtocol::kTypeReturn);
  w.PutU16(last_command_);
  w.PutU8(SelectProtocol::kStatusOk);
  kernel().ChargeHdrStore(SelectProtocol::kHeaderSize);
  msg.PushHeader(raw);
  return channel_->Push(msg);
}

Status SelectServerSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status SelectServerSession::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetLastCommand) {
    args.u64 = last_command_;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

}  // namespace xk
