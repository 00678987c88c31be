#include "src/proto/ip.h"

#include <algorithm>

#include "src/core/wire.h"
#include "src/tools/checksum.h"
#include "src/trace/trace.h"

namespace xk {

namespace {

constexpr uint16_t kFlagMoreFragments = 0x2000;
constexpr uint16_t kOffsetMask = 0x1FFF;
constexpr size_t kDefaultMtu = 1500;

// Serializes `h` (with correct checksum) into `out[20]`.
void BuildHeader(const IpHeader& h, uint8_t* out) {
  WireWriter w(std::span<uint8_t>(out, IpProtocol::kHeaderSize));
  w.PutU8(0x45);  // version 4, ihl 5
  w.PutU8(h.tos);
  w.PutU16(h.total_len);
  w.PutU16(h.id);
  uint16_t ff = static_cast<uint16_t>((h.frag_offset_bytes / 8) & kOffsetMask);
  if (h.more_fragments) {
    ff |= kFlagMoreFragments;
  }
  w.PutU16(ff);
  w.PutU8(h.ttl);
  w.PutU8(h.proto);
  w.PutU16(0);  // checksum placeholder
  w.PutIpAddr(h.src);
  w.PutIpAddr(h.dst);
  const uint16_t cks = ComputeChecksum(std::span<const uint8_t>(out, IpProtocol::kHeaderSize));
  out[10] = static_cast<uint8_t>(cks >> 8);
  out[11] = static_cast<uint8_t>(cks);
}

// Parses `raw[20]`; returns false if the version or checksum is bad.
bool ParseHeader(const uint8_t* raw, IpHeader* h) {
  WireReader r(std::span<const uint8_t>(raw, IpProtocol::kHeaderSize));
  const uint8_t ver_ihl = r.GetU8();
  if (ver_ihl != 0x45) {
    return false;
  }
  h->tos = r.GetU8();
  h->total_len = r.GetU16();
  h->id = r.GetU16();
  const uint16_t ff = r.GetU16();
  h->more_fragments = (ff & kFlagMoreFragments) != 0;
  h->frag_offset_bytes = static_cast<uint16_t>((ff & kOffsetMask) * 8);
  h->ttl = r.GetU8();
  h->proto = r.GetU8();
  r.Skip(2);  // checksum (verified over the raw bytes below)
  h->src = r.GetIpAddr();
  h->dst = r.GetIpAddr();
  // Verify: the checksum over the header including its checksum field must
  // fold to 0 (ComputeChecksum returns 0xFFFF for a valid header under the
  // never-zero rule).
  return ComputeChecksum(std::span<const uint8_t>(raw, IpProtocol::kHeaderSize)) == 0xFFFF;
}

}  // namespace

// ---------------------------------------------------------------------------
// IpProtocol
// ---------------------------------------------------------------------------

IpProtocol::IpProtocol(Kernel& kernel, std::vector<IpInterface> interfaces, std::string name)
    : Protocol(kernel, std::move(name), {}),
      interfaces_(std::move(interfaces)),
      active_(*this),
      passive_(*this) {
  // Receive IP datagrams on every interface.
  for (IpInterface& ifc : interfaces_) {
    ParticipantSet enable;
    enable.local.eth_type = kEthTypeIp;
    (void)ifc.eth->OpenEnable(*this, enable);
  }
}

bool IpProtocol::IsLocalAddr(IpAddr a) const {
  return std::any_of(interfaces_.begin(), interfaces_.end(),
                     [a](const IpInterface& i) { return i.addr == a; });
}

void IpProtocol::AddRoute(IpAddr subnet, IpAddr gateway) { routes_[subnet] = gateway; }

const IpInterface* IpProtocol::Route(IpAddr dst, IpAddr* next_hop) const {
  // Directly connected subnet?
  for (const IpInterface& ifc : interfaces_) {
    if (ifc.addr.SameSubnet(dst, ifc.mask_bits)) {
      *next_hop = dst;
      return &ifc;
    }
  }
  // Specific route, then default gateway. The gateway must be directly
  // connected through some interface.
  std::optional<IpAddr> gw;
  for (const auto& [subnet, gateway] : routes_) {
    if (subnet.SameSubnet(dst, 24)) {
      gw = gateway;
      break;
    }
  }
  if (!gw) {
    gw = default_gateway_;
  }
  if (!gw) {
    return nullptr;
  }
  for (const IpInterface& ifc : interfaces_) {
    if (ifc.addr.SameSubnet(*gw, ifc.mask_bits)) {
      *next_hop = *gw;
      return &ifc;
    }
  }
  return nullptr;
}

Result<SessionRef> IpProtocol::OpenLower(const IpInterface& ifc, IpAddr next_hop) {
  auto eth_addr = ifc.arp->Lookup(next_hop);
  if (!eth_addr) {
    return ErrStatus(StatusCode::kUnreachable);
  }
  ParticipantSet lparts;
  lparts.local.eth_type = kEthTypeIp;
  lparts.peer.eth = *eth_addr;
  return ifc.eth->Open(*this, lparts);
}

Result<SessionRef> IpProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.local.ip_proto.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  const IpAddr dst = *parts.peer.host;
  const IpProtoNum proto = *parts.local.ip_proto;
  const Key key{dst, proto};
  if (SessionRef cached = active_.Resolve(key)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  IpAddr next_hop;
  const IpInterface* ifc = Route(dst, &next_hop);
  if (ifc == nullptr) {
    return ErrStatus(StatusCode::kUnreachable);
  }
  Result<SessionRef> lower = OpenLower(*ifc, next_hop);
  if (!lower.ok()) {
    return lower.status();
  }
  ControlArgs args;
  size_t mtu = kDefaultMtu;
  if ((*lower)->Control(ControlOp::kGetMaxPacket, args).ok()) {
    mtu = args.u64;
  }
  kernel().ChargeSessionCreate();
  auto sess = NewSession<IpSession>(*this, &hlp, dst, proto, *lower, mtu);
  active_.Bind(key, sess);
  return SessionRef(sess);
}

void IpProtocol::OpenAsync(Protocol& hlp, const ParticipantSet& parts, OpenCallback done) {
  if (!parts.peer.host.has_value() || !parts.local.ip_proto.has_value()) {
    done(ErrStatus(StatusCode::kInvalidArgument));
    return;
  }
  IpAddr next_hop;
  const IpInterface* ifc = Route(*parts.peer.host, &next_hop);
  if (ifc == nullptr) {
    done(ErrStatus(StatusCode::kUnreachable));
    return;
  }
  // Resolve the next hop first (may go to the wire), then complete the open
  // through the normal synchronous path, whose ARP lookup now hits.
  ifc->arp->Resolve(next_hop, [this, &hlp, parts, done](Result<EthAddr> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    done(Open(hlp, parts));
  });
}

Status IpProtocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
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
  return OkStatus();
}

Status IpProtocol::Forward(const IpHeader& hdr, Message& msg) {
  TraceSink* ts = kernel().trace_sink();
  if (hdr.ttl <= 1) {
    ++stats_.ttl_drops;
    if (ts != nullptr) {
      ts->RecordEvent(kernel(), TraceOp::kTtlDrop, name(), kernel().now(), 0, &msg, nullptr,
                      hdr.ttl, StatusCode::kUnreachable);
    }
    return ErrStatus(StatusCode::kUnreachable);
  }
  IpAddr next_hop;
  const IpInterface* ifc = Route(hdr.dst, &next_hop);
  if (ifc == nullptr) {
    ++stats_.no_route_drops;
    if (ts != nullptr) {
      ts->RecordEvent(kernel(), TraceOp::kNoRoute, name(), kernel().now(), 0, &msg, nullptr,
                      0, StatusCode::kUnreachable);
    }
    return ErrStatus(StatusCode::kUnreachable);
  }
  Result<SessionRef> lower = OpenLower(*ifc, next_hop);
  if (!lower.ok()) {
    ++stats_.no_route_drops;
    if (ts != nullptr) {
      ts->RecordEvent(kernel(), TraceOp::kNoRoute, name(), kernel().now(), 0, &msg, nullptr,
                      0, lower.status().code());
    }
    return lower.status();
  }
  IpHeader out = hdr;
  out.ttl = static_cast<uint8_t>(hdr.ttl - 1);
  uint8_t raw[kHeaderSize];
  BuildHeader(out, raw);
  kernel().ChargeHdrStore(kHeaderSize);
  kernel().ChargeChecksum(kHeaderSize);
  msg.PushHeader(raw);
  ++stats_.forwards;
  if (ts != nullptr) {
    // One event per router hop, on the same message id the endpoints see, so
    // an observer can count the hop chain of any call's path.
    ts->RecordEvent(kernel(), TraceOp::kForward, name(), kernel().now(), 0, &msg, nullptr,
                    out.ttl);
  }
  return (*lower)->Push(msg);
}

Result<Message> IpProtocol::Reassemble(const IpHeader& hdr, Message& msg) {
  const ReasmKey key{hdr.src, hdr.dst, hdr.proto, hdr.id};
  Reasm& r = reasm_[key];
  if (r.frags.empty()) {
    r.timer = kernel().SetTimer(kReassemblyTimeout, [this, key]() {
      if (reasm_.erase(key) > 0) {
        ++stats_.reassembly_timeouts;
      }
    });
  }
  kernel().ChargeMsgJoin();
  r.frags[hdr.frag_offset_bytes] = msg;
  if (!hdr.more_fragments) {
    r.total_len = hdr.frag_offset_bytes + msg.length();
  }
  if (r.total_len == SIZE_MAX) {
    return ErrStatus(StatusCode::kNotFound);  // incomplete: last fragment missing
  }
  // Contiguity check from offset 0 to total_len.
  size_t covered = 0;
  for (const auto& [off, frag] : r.frags) {
    if (off > covered) {
      return ErrStatus(StatusCode::kNotFound);  // hole
    }
    covered = std::max(covered, off + frag.length());
  }
  if (covered < r.total_len) {
    return ErrStatus(StatusCode::kNotFound);
  }
  // Complete: join in order (overlaps trimmed).
  Message whole;
  size_t pos = 0;
  for (auto& [off, frag] : r.frags) {
    if (off + frag.length() <= pos) {
      continue;  // fully duplicate
    }
    Message piece = off < pos ? frag.Slice(pos - off, frag.length() - (pos - off)) : frag;
    whole.Append(piece);
    pos = off + frag.length();
    if (pos >= r.total_len) {
      break;
    }
  }
  whole.Truncate(r.total_len);
  kernel().CancelTimer(r.timer);
  reasm_.erase(key);
  ++stats_.reassemblies_completed;
  return whole;
}

Status IpProtocol::DeliverToSession(const IpHeader& hdr, Session* lls, Message& msg) {
  SessionRef sess = active_.Resolve(Key{hdr.src, hdr.proto});
  if (sess == nullptr) {
    Protocol* hlp = passive_.Resolve(hdr.proto);
    if (hlp == nullptr) {
      kernel().Tracef(2, "ip: no binding for proto %u", hdr.proto);
      return ErrStatus(StatusCode::kNotFound);
    }
    // open_done: prefer the routed path back to the source; fall back to the
    // reverse path (the lower session the datagram arrived on).
    SessionRef lower;
    size_t mtu = kDefaultMtu;
    IpAddr next_hop;
    if (const IpInterface* ifc = Route(hdr.src, &next_hop)) {
      if (Result<SessionRef> r = OpenLower(*ifc, next_hop); r.ok()) {
        lower = *r;
      }
    }
    if (lower == nullptr && lls != nullptr) {
      lower = lls->Ref();
    }
    if (lower == nullptr) {
      return ErrStatus(StatusCode::kUnreachable);
    }
    ControlArgs args;
    if (lower->Control(ControlOp::kGetMaxPacket, args).ok()) {
      mtu = args.u64;
    }
    kernel().ChargeSessionCreate();
    auto created = NewSession<IpSession>(*this, hlp, hdr.src, hdr.proto, lower, mtu);
    active_.Bind(Key{hdr.src, hdr.proto}, created);
    ParticipantSet parts;
    parts.local.host = hdr.dst;
    parts.local.ip_proto = hdr.proto;
    parts.peer.host = hdr.src;
    Status s = hlp->OpenDoneUp(*this, created, parts);
    if (!s.ok()) {
      active_.Unbind(Key{hdr.src, hdr.proto});
      return s;
    }
    sess = created;
  }
  ++stats_.datagrams_delivered;
  return sess->Pop(msg, lls);
}

Status IpProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t raw[kHeaderSize];
  if (!msg.PopHeader(raw)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  kernel().ChargeChecksum(kHeaderSize);
  IpHeader hdr;
  if (!ParseHeader(raw, &hdr)) {
    ++stats_.checksum_failures;
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if (hdr.total_len < kHeaderSize || hdr.total_len - kHeaderSize > msg.length()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  // Strip Ethernet minimum-frame padding.
  msg.Truncate(hdr.total_len - kHeaderSize);

  if (!IsLocalAddr(hdr.dst)) {
    if (forwarding_) {
      return Forward(hdr, msg);
    }
    return OkStatus();  // not ours, not a router: drop silently
  }

  if (hdr.more_fragments || hdr.frag_offset_bytes != 0) {
    Result<Message> whole = Reassemble(hdr, msg);
    if (!whole.ok()) {
      return OkStatus();  // incomplete; wait for more fragments
    }
    return DeliverToSession(hdr, lls, *whole);
  }
  return DeliverToSession(hdr, lls, msg);
}

Status IpProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      args.u64 = kMaxDatagram - kHeaderSize;
      return OkStatus();
    case ControlOp::kGetOptPacket: {
      // Largest datagram that does not fragment on the first interface.
      ControlArgs sub;
      size_t mtu = kDefaultMtu;
      if (!interfaces_.empty() && interfaces_[0].eth->Control(ControlOp::kGetMaxPacket, sub).ok()) {
        mtu = sub.u64;
      }
      args.u64 = mtu - kHeaderSize;
      return OkStatus();
    }
    case ControlOp::kGetMyHost:
      args.ip = interfaces_.empty() ? IpAddr() : interfaces_[0].addr;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

// ---------------------------------------------------------------------------
// IpSession
// ---------------------------------------------------------------------------

IpSession::IpSession(IpProtocol& owner, Protocol* hlp, IpAddr peer, IpProtoNum proto,
                     SessionRef lower, size_t lower_mtu)
    : Session(owner, hlp),
      ip_(owner),
      peer_(peer),
      proto_(proto),
      lower_(std::move(lower)),
      lower_mtu_(lower_mtu) {}

Status IpSession::SendOne(Message piece, uint16_t id, uint16_t offset_bytes, bool more) {
  kernel().ChargeMapResolve();  // route table consulted per datagram
  IpHeader h;
  h.total_len = static_cast<uint16_t>(IpProtocol::kHeaderSize + piece.length());
  h.id = id;
  h.more_fragments = more;
  h.frag_offset_bytes = offset_bytes;
  h.proto = proto_;
  h.src = kernel().ip_addr();
  h.dst = peer_;
  uint8_t raw[IpProtocol::kHeaderSize];
  BuildHeader(h, raw);
  kernel().ChargeHdrStore(IpProtocol::kHeaderSize);
  kernel().ChargeChecksum(IpProtocol::kHeaderSize);
  piece.PushHeader(raw);
  ++ip_.stats_.fragments_sent;
  return lower_->Push(piece);
}

Status IpSession::DoPush(Message& msg) {
  if (msg.length() > IpProtocol::kMaxDatagram - IpProtocol::kHeaderSize) {
    return ErrStatus(StatusCode::kTooBig);
  }
  ++ip_.stats_.datagrams_sent;
  const uint16_t id = ip_.NextId();
  const size_t max_payload = lower_mtu_ - IpProtocol::kHeaderSize;
  if (msg.length() <= max_payload) {
    return SendOne(msg, id, 0, false);
  }
  // Fragment: all pieces except the last carry a multiple of 8 bytes.
  const size_t piece_len = max_payload & ~size_t{7};
  size_t offset = 0;
  Status last = OkStatus();
  while (offset < msg.length()) {
    const size_t n = std::min(piece_len, msg.length() - offset);
    kernel().ChargeMsgSlice();
    Message piece = msg.Slice(offset, n);
    const bool more = offset + n < msg.length();
    last = SendOne(std::move(piece), id, static_cast<uint16_t>(offset), more);
    if (!last.ok()) {
      return last;
    }
    offset += n;
  }
  return last;
}

Status IpSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status IpSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetMaxPacket:
      args.u64 = IpProtocol::kMaxDatagram - IpProtocol::kHeaderSize;
      return OkStatus();
    case ControlOp::kGetOptPacket:
      args.u64 = lower_mtu_ - IpProtocol::kHeaderSize;
      return OkStatus();
    case ControlOp::kGetMyHost:
      args.ip = kernel().ip_addr();
      return OkStatus();
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
