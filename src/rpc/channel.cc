#include "src/rpc/channel.h"

#include "src/core/wire.h"
#include "src/trace/trace.h"

namespace xk {

namespace {
constexpr uint16_t kFlagRequest = 0x1;
constexpr uint16_t kFlagReply = 0x2;
constexpr uint16_t kFlagAck = 0x4;        // explicit "still working on it"
constexpr uint16_t kFlagPleaseAck = 0x8;  // retransmitted request asks for one
constexpr uint16_t kFlagDeadline = 0x10;  // header carries an 8-byte absolute
                                          // deadline extension after boot_id

// Size of the optional deadline extension (absolute sim-clock ns, u64).
constexpr size_t kDeadlineExtSize = 8;

// One whole retransmission token, in parts-per-million.
constexpr uint64_t kTokenPpm = 1000000;

// Adaptive-RTO bounds (consulted only after set_adaptive_timeout(true)).
constexpr SimTime kRtoFloor = Msec(10);
constexpr SimTime kRtoCap = Msec(2000);
}  // namespace

// ---------------------------------------------------------------------------
// ChannelProtocol
// ---------------------------------------------------------------------------

ChannelProtocol::ChannelProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}), active_(*this), passive_(*this) {
  MarkIdleCapable();
  ParticipantSet enable;
  enable.local.ip_proto = kIpProtoChannel;
  enable.local.rel_proto = kRelProtoChannel;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

bool ChannelProtocol::EvictSession(Session& s) {
  auto& cs = static_cast<ChannelSession&>(s);
  // SELECT's pre-opened channel pools (and any other upper layer caching the
  // channel) hold their own refs; such channels stay until their owner lets
  // go. CanEvict already vetoed in-flight calls and quarantined saved
  // replies.
  if (cs.weak_from_this().use_count() > 1) {
    return false;
  }
  active_.Unbind(Key{cs.peer_, cs.channel_, cs.proto_});
  return true;
}

void ChannelProtocol::RefillBudget() {
  if (retry_ratio_ppm_ == 0) {
    return;
  }
  retry_tokens_ppm_ += retry_ratio_ppm_;
  const uint64_t cap = retry_burst_ * kTokenPpm;
  if (retry_tokens_ppm_ > cap) {
    retry_tokens_ppm_ = cap;
  }
}

SimTime ChannelProtocol::EvictQuarantine() const {
  // Worst-case wait before one retransmission: the step-function timeout
  // grows with the request's fragment count (covered up to 8 fragments here,
  // beyond every workload in the repo) and quadruples once the server has
  // explicitly acked; the adaptive path is bounded by the backoff cap plus
  // its 1/8 jitter. The peer gives up after kRetryLimit retries, so after
  // (kRetryLimit + 1) such waits of silence no duplicate can still arrive.
  SimTime per_try = kBaseTimeout * 8 * 4;
  if (adaptive_timeout_) {
    const SimTime capped = kRtoCap + kRtoCap / 8;
    if (capped * 4 > per_try) {
      per_try = capped * 4;
    }
  }
  return static_cast<SimTime>(kRetryLimit + 1) * per_try;
}

bool ChannelSession::CanEvict() const {
  if (pending_.has_value() || in_progress_) {
    return false;
  }
  if (!saved_reply_.has_value()) {
    return true;  // fully acknowledged: a late duplicate cannot exist
  }
  return kernel().now() - last_active() >= chan_.EvictQuarantine();
}

Result<SessionRef> ChannelProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  // Protocols that do not manage channel ids themselves (e.g. SUN_SELECT when
  // CHANNEL replaces REQUEST_REPLY) get channel 0.
  const uint16_t channel_id = parts.local.channel.value_or(0);
  const Key key{*parts.peer.host, channel_id, *parts.local.rel_proto};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  ParticipantSet lparts;
  lparts.peer.host = *parts.peer.host;
  lparts.local.ip_proto = kIpProtoChannel;       // read by VIP/IP lowers
  lparts.local.rel_proto = kRelProtoChannel;     // read by FRAGMENT/VIP_SIZE lowers
  Result<SessionRef> lower_sess = lower(0)->Open(*this, lparts);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = pool_.Create(*this, &hlp, *parts.peer.host, channel_id, *parts.local.rel_proto,
                           *lower_sess);
  active_.Bind(key, sess);
  TrackIdle(*sess);
  return SessionRef(sess);
}

Status ChannelProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
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

Status ChannelProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  const uint16_t flags = r.GetU16();
  const uint16_t channel = r.GetU16();
  const RelProtoNum proto = r.GetU32();
  const uint32_t seq = r.GetU32();
  const uint16_t error = r.GetU16();
  const uint32_t boot_id = r.GetU32();
  if (flags & kFlagDeadline) {
    uint8_t ext[kDeadlineExtSize];
    if (!msg.PopHeader(ext)) {
      return ErrStatus(StatusCode::kInvalidArgument);
    }
    kernel().ChargeHdrLoad(kDeadlineExtSize);
    WireReader er(ext);
    msg.set_deadline(static_cast<SimTime>(er.GetU64()));
  }

  // The peer's address comes from the delivering session, not the header
  // (CHANNEL deliberately carries no host addresses -- FRAGMENT or IP below
  // know them).
  IpAddr peer;
  if (lls != nullptr) {
    ControlArgs args;
    if (lls->Control(ControlOp::kGetPeerHost, args).ok()) {
      peer = args.ip;
    }
  }
  const Key key{peer, channel, proto};
  SessionRef sess = active_.Resolve(key);
  if (sess == nullptr) {
    Protocol* hlp = passive_.Resolve(proto);
    if (hlp == nullptr || lls == nullptr) {
      kernel().Tracef(2, "channel: no binding for proto %u", proto);
      return ErrStatus(StatusCode::kNotFound);
    }
    kernel().ChargeSessionCreate();
    auto created = pool_.Create(*this, hlp, peer, channel, proto, lls->Ref());
    active_.Bind(key, created);
    TrackIdle(*created);
    ParticipantSet up;
    up.local.rel_proto = proto;
    up.local.channel = channel;
    up.peer.host = peer;
    Status s = hlp->OpenDoneUp(*this, created, up);
    if (!s.ok()) {
      active_.Unbind(key);
      return s;
    }
    sess = created;
  }
  return static_cast<ChannelSession*>(sess.get())
      ->HandlePacket(flags, seq, error, boot_id, msg, lls);
}

Status ChannelProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kSetRetryBudget:
      retry_burst_ = args.u64 >> 32;
      retry_ratio_ppm_ = args.u64 & 0xFFFFFFFFu;
      retry_tokens_ppm_ = retry_burst_ * kTokenPpm;  // bucket starts full
      return OkStatus();
    case ControlOp::kGetMaxSendSize:
      // CHANNEL adds a header but does not fragment; it depends on the layer
      // below to carry (or split) what its own clients push.
      return lower(0)->Control(ControlOp::kGetMaxPacket, args);
    default:
      return Protocol::DoControl(op, args);
  }
}

// ---------------------------------------------------------------------------
// ChannelSession
// ---------------------------------------------------------------------------

ChannelSession::ChannelSession(ChannelProtocol& owner, Protocol* hlp, IpAddr peer,
                               uint16_t channel, RelProtoNum proto, SessionRef lower)
    : Session(owner, hlp),
      chan_(owner),
      peer_(peer),
      channel_(channel),
      proto_(proto),
      lower_(std::move(lower)),
      jitter_(0x9e3779b97f4a7c15ULL ^ (static_cast<uint64_t>(channel) << 32) ^ proto) {}

void ChannelSession::Send(uint16_t flags, uint32_t seq, uint16_t error,
                          const Message& payload) {
  uint8_t raw[ChannelProtocol::kHeaderSize + kDeadlineExtSize];
  // Requests with a deadline carry it on the wire so the server can shed
  // expired work; the extension costs nothing when deadlines are off.
  const bool with_deadline = (flags & kFlagRequest) != 0 && payload.deadline() != 0;
  if (with_deadline) {
    flags |= kFlagDeadline;
  }
  WireWriter w(raw);
  w.PutU16(flags);
  w.PutU16(channel_);
  w.PutU32(proto_);
  w.PutU32(seq);
  w.PutU16(error);
  w.PutU32(kernel().boot_id());
  if (with_deadline) {
    w.PutU64(static_cast<uint64_t>(payload.deadline()));
  }
  Message pkt = payload;
  kernel().ChargeHdrStore(w.pos());
  pkt.PushHeader(std::span(raw, w.pos()));
  (void)lower_->Push(pkt);
}

SimTime ChannelSession::TimeoutFor(const Message& msg) const {
  // Step function: single-fragment messages use the base timeout;
  // multi-fragment messages wait long enough that FRAGMENT cannot still be
  // mid-transfer (paper, Section 3.2).
  ControlArgs args;
  size_t opt = 1024;
  if (lower_->Control(ControlOp::kGetOptPacket, args).ok()) {
    opt = args.u64;
  }
  const size_t frags = msg.length() / (opt + 1) + 1;
  return ChannelProtocol::kBaseTimeout * static_cast<SimTime>(frags);
}

SimTime ChannelSession::AdaptiveRto() const {
  // Jacobson RTO with capped exponential backoff per retry.
  SimTime rto = srtt_ + 4 * rttvar_;
  if (rto < kRtoFloor) {
    rto = kRtoFloor;
  }
  const int shift = pending_->retries < 6 ? pending_->retries : 6;
  rto <<= shift;
  if (rto > kRtoCap) {
    rto = kRtoCap;
  }
  return rto;
}

void ChannelSession::ArmTimer() {
  SimTime rto;
  if (chan_.adaptive_timeout_ && have_rtt_) {
    rto = AdaptiveRto();
    // Deterministic per-channel jitter desynchronizes retry storms across
    // channels without perturbing runs (seeded from the channel identity).
    rto += static_cast<SimTime>(
        jitter_.NextBelow(static_cast<uint64_t>(rto / 8) + 1));
  } else {
    rto = TimeoutFor(pending_->request);
  }
  SimTime delay = rto * (pending_->acked ? 4 : 1);
  if (pending_->deadline != 0) {
    // Never sleep past the deadline: the timer fires exactly at it so the
    // giveup happens the moment the call can no longer succeed.
    const SimTime until = pending_->deadline - kernel().now();
    if (until < delay) {
      delay = until > 0 ? until : 0;
    }
  }
  pending_->timer = kernel().SetTimer(delay, [this]() { OnTimeout(); });
}

void ChannelSession::FailPending(StatusCode code) {
  ++chan_.stats_.call_failures;
  if (TraceSink* ts = kernel().trace_sink()) {
    const TraceOp op = code == StatusCode::kResourceExhausted ? TraceOp::kBudgetExhausted
                                                              : TraceOp::kGiveUp;
    ts->RecordEvent(kernel(), op, chan_.name(), kernel().now(), 0, &pending_->request, this,
                    static_cast<uint64_t>(pending_->retries), code);
  }
  Message req = std::move(pending_->request);
  kernel().CancelTimer(pending_->timer);
  pending_.reset();
  // A sweep may have parked this session while the call pinned it; relink
  // so the now-idle channel ages out normally.
  NoteActivity();
  if (hlp() != nullptr) {
    hlp()->SessionError(*this, ErrStatus(code), &req);
  }
}

void ChannelSession::OnTimeout() {
  if (!pending_.has_value()) {
    return;
  }
  ++chan_.stats_.timeouts;
  if (pending_->deadline != 0 && kernel().now() >= pending_->deadline) {
    // The deadline passed: retransmitting buys nothing the caller can use.
    ++chan_.stats_.deadline_giveups;
    FailPending(StatusCode::kDeadlineExceeded);
    return;
  }
  if (pending_->retries >= ChannelProtocol::kRetryLimit) {
    FailPending(StatusCode::kTimeout);
    return;
  }
  if (chan_.retry_ratio_ppm_ > 0) {
    // Retry budget: a retransmission costs one whole token. An empty bucket
    // means the stack as a whole is retrying more than its configured ratio
    // -- give this call up instead of joining the storm.
    if (chan_.retry_tokens_ppm_ < kTokenPpm) {
      ++chan_.stats_.budget_giveups;
      FailPending(StatusCode::kResourceExhausted);
      return;
    }
    chan_.retry_tokens_ppm_ -= kTokenPpm;
  }
  ++pending_->retries;
  pending_->retransmitted = true;
  ++chan_.stats_.retransmissions;
  if (TraceSink* ts = kernel().trace_sink()) {
    // Each attempt boundary is a point event on the saved request message, so
    // a causal stitcher can tie every wire transmission of the same id to an
    // attempt and classify what the retry was recovering from.
    ts->RecordEvent(kernel(), TraceOp::kRetransmit, chan_.name(), kernel().now(), 0,
                    &pending_->request, this,
                    static_cast<uint64_t>(pending_->retries + 1));
  }
  // Retransmissions ask the server to confirm liveness explicitly.
  Send(kFlagRequest | kFlagPleaseAck, pending_->seq, 0, pending_->request);
  ArmTimer();
}

Status ChannelSession::DoPush(Message& msg) {
  if (in_progress_) {
    // A request from the peer is executing here: this push is its reply.
    // Executions complete in start order, so the oldest queued seq names the
    // request this reply answers. If that is no longer the current request,
    // the client abandoned it (deadline giveup) and reused the channel -- the
    // reply answers dead work and must be dropped, NOT sent as the current
    // request's answer (the payload would belong to the wrong call).
    uint32_t exec_seq = recv_seq_;
    if (!exec_seqs_.empty()) {
      exec_seq = exec_seqs_.front();
      exec_seqs_.erase(exec_seqs_.begin());
    }
    in_progress_ = !exec_seqs_.empty();
    if (exec_seq != recv_seq_) {
      ++chan_.stats_.abandoned_replies;
      return OkStatus();
    }
    // A nonzero wire_error (admission fast-reject, shed) rides the header's
    // error field so the client fails the call without parsing a payload.
    saved_reply_ = msg;  // kept until implicitly acked by the next request
    Send(kFlagReply, recv_seq_, msg.wire_error(), msg);
    return OkStatus();
  }
  // Client call.
  if (pending_.has_value()) {
    return ErrStatus(StatusCode::kError);  // one outstanding call per channel
  }
  if (msg.deadline() != 0 && kernel().now() >= msg.deadline()) {
    // Already expired (e.g. queued behind a full channel pool): don't waste
    // a wire exchange on an answer nobody will wait for.
    ++chan_.stats_.deadline_giveups;
    if (TraceSink* ts = kernel().trace_sink()) {
      ts->RecordEvent(kernel(), TraceOp::kGiveUp, chan_.name(), kernel().now(), 0, &msg, this, 0,
                      StatusCode::kDeadlineExceeded);
    }
    return ErrStatus(StatusCode::kDeadlineExceeded);
  }
  const uint32_t seq = ++send_seq_;
  ++chan_.stats_.calls_sent;
  chan_.RefillBudget();
  pending_.emplace();
  pending_->request = msg;
  pending_->seq = seq;
  pending_->sent_at = kernel().now();
  pending_->deadline = msg.deadline();
  Send(kFlagRequest, seq, 0, msg);
  ArmTimer();
  kernel().ChargeSemOp();  // the calling shepherd blocks awaiting the reply
  return OkStatus();
}

Status ChannelSession::HandleRequest(uint32_t seq, uint32_t boot_id, Message& payload,
                                     Session* lls) {
  if (lls != nullptr) {
    lower_ = lls->Ref();  // replies return the way the request came
  }
  if (client_boot_id_ != 0 && boot_id != client_boot_id_) {
    // The client rebooted: its sequence space restarted.
    ++chan_.stats_.boot_resets;
    recv_seq_ = 0;
    in_progress_ = false;
    exec_seqs_.clear();
    saved_reply_.reset();
  }
  client_boot_id_ = boot_id;

  if (seq == recv_seq_) {
    // Duplicate of the current request: at-most-once -- never re-execute.
    // A saved error reply (shed/reject) resends with its original error code.
    ++chan_.stats_.duplicates_suppressed;
    if (saved_reply_.has_value()) {
      ++chan_.stats_.replies_resent;
      Send(kFlagReply, recv_seq_, saved_reply_->wire_error(), *saved_reply_);
    } else if (in_progress_) {
      ++chan_.stats_.explicit_acks_sent;
      Send(kFlagAck, recv_seq_, 0, Message());
    }
    return OkStatus();
  }
  if (seq < recv_seq_) {
    ++chan_.stats_.stale_drops;
    return OkStatus();
  }
  // New request: implicitly acknowledges the previous reply.
  saved_reply_.reset();
  recv_seq_ = seq;
  if (payload.deadline() != 0 && kernel().now() >= payload.deadline()) {
    // Deadline-aware shedding: the request expired in flight or in queue.
    // Answer with a cheap error reply instead of charging execution -- the
    // client has already given up (or is about to), so running the handler
    // would only push the server deeper into overload.
    ++chan_.stats_.deadline_sheds;
    if (TraceSink* ts = kernel().trace_sink()) {
      ts->RecordEvent(kernel(), TraceOp::kShed, chan_.name(), kernel().now(), 0, &payload, this,
                      0, StatusCode::kDeadlineExceeded);
    }
    Message err_reply;
    err_reply.set_wire_error(static_cast<uint8_t>(StatusCode::kDeadlineExceeded));
    saved_reply_ = err_reply;
    Send(kFlagReply, recv_seq_, err_reply.wire_error(), err_reply);
    return OkStatus();
  }
  in_progress_ = true;
  exec_seqs_.push_back(recv_seq_);
  ++chan_.stats_.requests_executed;
  // Dispatch to the server process.
  kernel().ChargeSemOp();
  kernel().ChargeProcessSwitch();
  return DeliverUp(payload);
}

Status ChannelSession::HandleReply(uint16_t flags, uint32_t seq, uint16_t error,
                                   Message& payload) {
  if (!pending_.has_value() || seq != pending_->seq) {
    ++chan_.stats_.stale_drops;
    return OkStatus();  // late reply to an abandoned/completed call
  }
  if (flags & kFlagAck) {
    // Explicit ack: the server is alive and still working; wait longer.
    ++chan_.stats_.explicit_acks_received;
    pending_->acked = true;
    kernel().CancelTimer(pending_->timer);
    ArmTimer();
    return OkStatus();
  }
  if (error != 0) {
    // Error reply: the server refused or shed the request (BUSY from
    // admission control, DEADLINE_EXCEEDED from shedding). Complete the call
    // with that status -- much cheaper for everyone than burning the full
    // retransmission ladder. Error replies return immediately regardless of
    // service time, so they never feed the RTT estimator.
    kernel().CancelTimer(pending_->timer);
    Message req = std::move(pending_->request);
    pending_.reset();
    ++chan_.stats_.reject_replies;
    ++chan_.stats_.call_failures;
    NoteActivity();
    // Wake the blocked calling shepherd to observe the failure.
    kernel().ChargeSemOp();
    kernel().ChargeProcessSwitch();
    if (hlp() != nullptr) {
      hlp()->SessionError(*this, ErrStatus(static_cast<StatusCode>(error)), &req);
    }
    return OkStatus();
  }
  // RTT estimation, Karn's rule: retransmitted calls are ambiguous (the reply
  // may answer either copy), so only clean exchanges update the estimator.
  if (!pending_->retransmitted) {
    const SimTime sample = kernel().now() - pending_->sent_at;
    if (!have_rtt_) {
      srtt_ = sample;
      rttvar_ = sample / 2;
      have_rtt_ = true;
    } else {
      const SimTime err = sample - srtt_;
      srtt_ += err / 8;
      const SimTime abs_err = err < 0 ? -err : err;
      rttvar_ += (abs_err - rttvar_) / 4;
    }
  }
  kernel().CancelTimer(pending_->timer);
  pending_.reset();
  ++chan_.stats_.replies_received;
  // Wake the blocked calling shepherd.
  kernel().ChargeSemOp();
  kernel().ChargeProcessSwitch();
  return DeliverUp(payload);
}

Status ChannelSession::HandlePacket(uint16_t flags, uint32_t seq, uint16_t error,
                                    uint32_t boot_id, Message& payload, Session* lls) {
  NoteActivity();  // packet arrival bypasses Session::Pop
  if (flags & kFlagRequest) {
    return HandleRequest(seq, boot_id, payload, lls);
  }
  if (flags & (kFlagReply | kFlagAck)) {
    if (peer_boot_id_ != 0 && boot_id != peer_boot_id_ && pending_.has_value()) {
      // The server rebooted while we were waiting: the call's fate is
      // unknown. Surface the failure (Sprite's crash detection would).
      ++chan_.stats_.boot_resets;
    }
    peer_boot_id_ = boot_id;
    return HandleReply(flags, seq, error, payload);
  }
  return ErrStatus(StatusCode::kInvalidArgument);
}

Status ChannelSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status ChannelSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetPeerHost:
      args.ip = peer_;
      return OkStatus();
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
