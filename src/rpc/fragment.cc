#include "src/rpc/fragment.h"

#include <algorithm>

#include "src/core/wire.h"

namespace xk {

namespace {
constexpr uint8_t kTypeData = 1;
constexpr uint8_t kTypeNack = 2;
constexpr size_t kMinSentRing = 8;
}  // namespace

// ---------------------------------------------------------------------------
// FragmentProtocol
// ---------------------------------------------------------------------------

FragmentProtocol::FragmentProtocol(Kernel& kernel, Protocol* lower, std::string name)
    : Protocol(kernel, std::move(name), {lower}), active_(*this), passive_(*this) {
  // Receive FRAGMENT traffic from below.
  ParticipantSet enable;
  enable.local.ip_proto = kIpProtoFragment;
  (void)this->lower(0)->OpenEnable(*this, enable);
}

Result<SessionRef> FragmentProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.rel_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const Key key{*parts.peer.host, *parts.local.rel_proto};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  ParticipantSet lparts;
  lparts.local.ip_proto = kIpProtoFragment;
  lparts.peer.host = *parts.peer.host;
  Result<SessionRef> lower_sess = lower(0)->Open(*this, lparts);
  if (!lower_sess.ok()) {
    return lower_sess.status();
  }
  kernel().ChargeSessionCreate();
  auto sess = std::make_shared<FragmentSession>(*this, &hlp, *parts.peer.host,
                                                *parts.local.rel_proto, *lower_sess);
  active_.Bind(key, sess);
  return SessionRef(sess);
}

Status FragmentProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
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

Status FragmentProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(raw);
  const uint8_t type = r.GetU8();
  const IpAddr src = r.GetIpAddr();
  const IpAddr dst = r.GetIpAddr();
  const RelProtoNum proto = r.GetU32();
  const uint32_t seq = r.GetU32();
  const uint16_t num_frags = r.GetU16();
  const uint16_t frag_mask = r.GetU16();
  const uint16_t len = r.GetU16();
  if (dst != kernel().ip_addr()) {
    return ErrStatus(StatusCode::kNotFound);
  }
  msg.Truncate(len);

  const Key key{src, proto};
  SessionRef sess = active_.Resolve(key);
  if (sess == nullptr) {
    Protocol* hlp = passive_.Resolve(proto);
    if (hlp == nullptr || lls == nullptr) {
      kernel().Tracef(2, "fragment: no binding for proto %u", proto);
      return ErrStatus(StatusCode::kNotFound);
    }
    kernel().ChargeSessionCreate();
    auto created = std::make_shared<FragmentSession>(*this, hlp, src, proto, lls->Ref());
    active_.Bind(key, created);
    ParticipantSet up;
    up.local.rel_proto = proto;
    up.peer.host = src;
    Status s = hlp->OpenDoneUp(*this, created, up);
    if (!s.ok()) {
      active_.Unbind(key);
      return s;
    }
    sess = created;
  }
  return static_cast<FragmentSession*>(sess.get())
      ->HandlePacket(type, seq, num_frags, frag_mask, msg, lls);
}

Status FragmentProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      args.u64 = kMaxMessage;
      return OkStatus();
    case ControlOp::kGetOptPacket:
      args.u64 = kFragSize;
      return OkStatus();
    case ControlOp::kGetMaxSendSize:
      // What VIP needs to know at open time: the largest packet FRAGMENT will
      // ever hand downward is one fragment plus its header.
      args.u64 = kFragSize + kHeaderSize;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// FragmentSession
// ---------------------------------------------------------------------------

FragmentSession::FragmentSession(FragmentProtocol& owner, Protocol* hlp, IpAddr peer,
                                 RelProtoNum proto, SessionRef lower)
    : Session(owner, hlp), frag_(owner), peer_(peer), proto_(proto), lower_(std::move(lower)) {}

void FragmentSession::SendFragment(uint32_t seq, uint16_t num_frags, uint16_t index,
                                   const Message& payload, uint8_t type) {
  uint8_t raw[FragmentProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU8(type);
  w.PutIpAddr(kernel().ip_addr());
  w.PutIpAddr(peer_);
  w.PutU32(proto_);
  w.PutU32(seq);
  w.PutU16(num_frags);
  w.PutU16(static_cast<uint16_t>(1u << index));
  w.PutU16(static_cast<uint16_t>(payload.length()));
  Message pkt = payload;
  kernel().ChargeHdrStore(FragmentProtocol::kHeaderSize);
  pkt.PushHeader(raw);
  ++frag_.stats_.fragments_sent;
  (void)lower_->Push(pkt);
}

Status FragmentSession::DoPush(Message& msg) {
  if (msg.length() > FragmentProtocol::kMaxMessage) {
    return ErrStatus(StatusCode::kTooBig);
  }
  const uint32_t seq = next_seq_++;
  const uint16_t num_frags = static_cast<uint16_t>(
      std::max<size_t>(1, (msg.length() + FragmentProtocol::kFragSize - 1) /
                              FragmentProtocol::kFragSize));
  ++frag_.stats_.messages_sent;

  kernel().ChargeMapBind();  // enter the send cache
  SentSlot& slot = ClaimSent(seq);
  for (uint16_t i = 0; i < num_frags; ++i) {
    if (num_frags == 1) {
      slot.frags.push_back(msg);
    } else {
      kernel().ChargeMsgSlice();
      slot.frags.push_back(msg.Slice(static_cast<size_t>(i) * FragmentProtocol::kFragSize,
                                     FragmentProtocol::kFragSize));
    }
    // The cache shares the payload bytes with the in-flight packets (the
    // footnote in Section 3.2: multiple layers hold references to pieces of
    // the same message).
    SendFragment(seq, num_frags, i, slot.frags.back(), kTypeData);
  }
  // "The sending host associates a timer with each message it sends and
  // discards the message when the timer expires."
  kernel().SetTimer(frag_.send_cache_timeout_, [this, seq]() {
    if (SentSlot* expired = FindSent(seq)) {
      Release(*expired);
      ++frag_.stats_.cache_expirations;
    }
  });
  return OkStatus();
}

FragmentSession::SentSlot* FragmentSession::FindSent(uint32_t seq) {
  if (sent_.empty()) {
    return nullptr;
  }
  SentSlot& slot = sent_[seq & (sent_.size() - 1)];
  return slot.occupied && slot.seq == seq ? &slot : nullptr;
}

FragmentSession::SentSlot& FragmentSession::ClaimSent(uint32_t seq) {
  if (sent_.empty()) {
    sent_.resize(kMinSentRing);
  }
  while (sent_[seq & (sent_.size() - 1)].occupied) {
    // Live seqs are distinct modulo the old size, so they stay distinct
    // modulo the new one.
    std::vector<SentSlot> bigger(sent_.size() * 2);
    for (SentSlot& slot : sent_) {
      if (slot.occupied) {
        bigger[slot.seq & (bigger.size() - 1)] = std::move(slot);
      }
    }
    sent_ = std::move(bigger);
  }
  SentSlot& slot = sent_[seq & (sent_.size() - 1)];
  slot.occupied = true;
  slot.seq = seq;
  return slot;
}

void FragmentSession::Release(SentSlot& slot) {
  slot.occupied = false;
  slot.frags.clear();  // keeps the capacity for the slot's next message
}

FragmentSession::Reasm* FragmentSession::FindReasm(uint32_t seq) {
  for (Reasm& r : reasm_) {
    if (r.occupied && r.seq == seq) {
      return &r;
    }
  }
  return nullptr;
}

FragmentSession::Reasm& FragmentSession::ClaimReasm(uint32_t seq, uint16_t num_frags) {
  Reasm* r = nullptr;
  for (Reasm& slot : reasm_) {
    if (!slot.occupied) {
      r = &slot;
      break;
    }
  }
  if (r == nullptr) {
    r = &reasm_.emplace_back();
  }
  r->occupied = true;
  r->seq = seq;
  r->num_frags = num_frags;
  r->frags.resize(num_frags);
  return *r;
}

void FragmentSession::Release(Reasm& r) {
  r.occupied = false;
  r.have_mask = 0;
  r.nacks = 0;
  r.frags.clear();
}

bool FragmentSession::RecentlyDone(uint32_t seq) const {
  const auto end = recent_done_.begin() + std::min<uint64_t>(recent_count_, kRecentWindow);
  return std::find(recent_done_.begin(), end, seq) != end;
}

void FragmentSession::SendNack(uint32_t seq, uint16_t missing_mask) {
  uint8_t raw[FragmentProtocol::kHeaderSize];
  WireWriter w(raw);
  w.PutU8(kTypeNack);
  w.PutIpAddr(kernel().ip_addr());
  w.PutIpAddr(peer_);
  w.PutU32(proto_);
  w.PutU32(seq);
  w.PutU16(0);
  w.PutU16(missing_mask);
  w.PutU16(0);
  Message pkt;
  kernel().ChargeHdrStore(FragmentProtocol::kHeaderSize);
  pkt.PushHeader(raw);
  ++frag_.stats_.nacks_sent;
  (void)lower_->Push(pkt);
}

void FragmentSession::ArmGapTimer(Reasm& r) {
  r.gap_timer =
      kernel().SetTimer(frag_.nack_delay_, [this, seq = r.seq]() { OnGapTimer(seq); });
}

void FragmentSession::OnGapTimer(uint32_t seq) {
  Reasm* r = FindReasm(seq);
  if (r == nullptr) {
    return;
  }
  if (r->nacks >= FragmentProtocol::kMaxNacks) {
    // Give up; the higher level's own timeout will resend the whole message.
    Release(*r);
    ++frag_.stats_.reassembly_abandoned;
    return;
  }
  ++r->nacks;
  SendNack(seq, static_cast<uint16_t>(FullMask(r->num_frags) & ~r->have_mask));
  ArmGapTimer(*r);
}

void FragmentSession::OnNack(uint32_t seq, uint16_t missing_mask) {
  ++frag_.stats_.nacks_received;
  const SentSlot* slot = FindSent(seq);
  if (slot == nullptr) {
    // Cache already discarded: the higher level must resend (as a new
    // message). Nothing to do here.
    ++frag_.stats_.stale_nacks;
    return;
  }
  const auto num_frags = static_cast<uint16_t>(slot->frags.size());
  for (uint16_t i = 0; i < num_frags; ++i) {
    if (missing_mask & (1u << i)) {
      ++frag_.stats_.fragments_resent;
      SendFragment(seq, num_frags, i, slot->frags[i], kTypeData);
    }
  }
}

Status FragmentSession::CompleteReassembly(Reasm& r) {
  Message whole;
  for (uint16_t i = 0; i < r.num_frags; ++i) {
    kernel().ChargeMsgJoin();
    whole.Append(r.frags[i]);
  }
  kernel().CancelTimer(r.gap_timer);
  recent_done_[recent_count_++ % kRecentWindow] = r.seq;
  Release(r);
  ++frag_.stats_.messages_delivered;
  return DeliverUp(whole);
}

Status FragmentSession::HandlePacket(uint8_t type, uint32_t seq, uint16_t num_frags,
                                     uint16_t frag_mask, Message& payload, Session* lls) {
  // Adopt the reverse path for replies/NACKs if we were created before we had
  // a lower session (defensive; passive creation always supplies one).
  if (lower_ == nullptr && lls != nullptr) {
    lower_ = lls->Ref();
  }
  if (type == kTypeNack) {
    OnNack(seq, frag_mask);
    return OkStatus();
  }
  if (type != kTypeData || num_frags == 0 || num_frags > FragmentProtocol::kMaxFrags) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if (num_frags == 1) {
    // Fast path: single-fragment message, no reassembly state at all (one
    // duplicate-window probe).
    kernel().ChargeMapResolve();
    ++frag_.stats_.messages_delivered;
    return DeliverUp(payload);
  }
  // A corrupted mask that names no fragment of its own message is rejected
  // before it can claim a reassembly slot or arm a gap timer.
  const int index = SingleBitIndex(frag_mask);
  if (index < 0 || index >= num_frags) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  // A seq being reassembled is never in the done window: it enters the
  // window only on completion, which frees its reassembly slot.
  Reasm* found = FindReasm(seq);
  if (found == nullptr && RecentlyDone(seq)) {
    return OkStatus();  // late duplicate of a completed message
  }
  kernel().ChargeMapResolve();
  // A corrupted header can also disagree with the first fragment's count.
  if (found != nullptr && index >= found->num_frags) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  Reasm& r = found != nullptr ? *found : ClaimReasm(seq, num_frags);
  // A new fragment of a message in progress pushes its gap timer back.
  if (found == nullptr || !kernel().RearmTimer(r.gap_timer, frag_.nack_delay_)) {
    ArmGapTimer(r);
  }
  if ((r.have_mask & (1u << index)) == 0) {
    r.have_mask |= static_cast<uint16_t>(1u << index);
    kernel().ChargeMsgJoin();
    r.frags[index] = payload;
  }
  if (r.have_mask == FullMask(r.num_frags)) {
    return CompleteReassembly(r);
  }
  return OkStatus();
}

Status FragmentSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status FragmentSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      args.u64 = FragmentProtocol::kMaxMessage;
      return OkStatus();
    case ControlOp::kGetOptPacket:
      args.u64 = FragmentProtocol::kFragSize;
      return OkStatus();
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
