#include "src/proto/arp.h"

#include "src/core/wire.h"

namespace xk {

namespace {
constexpr uint8_t kOpRequest = 1;
constexpr uint8_t kOpReply = 2;
}  // namespace

ArpProtocol::ArpProtocol(Kernel& kernel, Protocol* eth, std::optional<IpAddr> my_ip,
                         std::string name)
    : Protocol(kernel, std::move(name), {eth}), my_ip_(my_ip.value_or(kernel.ip_addr())) {
  ControlArgs args;
  my_eth_ = lower(0)->Control(ControlOp::kGetMyHostEth, args).ok() ? args.eth : kernel.eth_addr();
  // Receive ARP traffic: both broadcasts (requests) and unicasts (replies).
  ParticipantSet enable;
  enable.local.eth_type = kEthTypeArp;
  (void)lower(0)->OpenEnable(*this, enable);
}

SessionRef ArpProtocol::BroadcastSession() {
  if (bcast_ == nullptr) {
    ParticipantSet parts;
    parts.local.eth_type = kEthTypeArp;
    parts.peer.eth = EthAddr::Broadcast();
    Result<SessionRef> r = lower(0)->Open(*this, parts);
    if (r.ok()) {
      bcast_ = *r;
    }
  }
  return bcast_;
}

std::optional<EthAddr> ArpProtocol::Lookup(IpAddr ip) const {
  auto it = cache_.find(ip);
  if (it == cache_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<IpAddr> ArpProtocol::ReverseLookup(EthAddr eth) const {
  for (const auto& [ip, mac] : cache_) {
    if (mac == eth) {
      return ip;
    }
  }
  return std::nullopt;
}

void ArpProtocol::Resolve(IpAddr ip, ResolveCallback done) {
  kernel().ChargeMapResolve();
  if (auto hit = Lookup(ip)) {
    done(*hit);
    return;
  }
  Pending& p = pending_[ip];
  p.waiters.push_back(std::move(done));
  if (p.waiters.size() > 1) {
    return;  // a request is already outstanding
  }
  p.attempts = 1;
  SendRequest(ip);
  p.timer = kernel().SetTimer(kRetryTimeout, [this, ip]() { RetryOrFail(ip); });
}

void ArpProtocol::RetryOrFail(IpAddr target) {
  auto it = pending_.find(target);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  if (p.attempts >= kDefaultRetries) {
    std::vector<ResolveCallback> waiters = std::move(p.waiters);
    pending_.erase(it);
    for (auto& cb : waiters) {
      cb(ErrStatus(StatusCode::kUnreachable));
    }
    return;
  }
  ++p.attempts;
  SendRequest(target);
  p.timer = kernel().SetTimer(kRetryTimeout, [this, target]() { RetryOrFail(target); });
}

void ArpProtocol::SendRequest(IpAddr target) {
  SessionRef bcast = BroadcastSession();
  if (bcast == nullptr) {
    return;
  }
  uint8_t pkt[kPacketSize];
  WireWriter w(pkt);
  w.PutU8(kOpRequest);
  w.PutU8(0);  // pad
  w.PutIpAddr(my_ip_);
  w.PutEthAddr(my_eth_);
  w.PutIpAddr(target);
  w.PutEthAddr(EthAddr());
  Message msg = Message::FromBytes(pkt);
  ++requests_sent_;
  (void)bcast->Push(msg);
}

void ArpProtocol::SendReply(IpAddr requester_ip, EthAddr requester_eth) {
  ParticipantSet parts;
  parts.local.eth_type = kEthTypeArp;
  parts.peer.eth = requester_eth;
  Result<SessionRef> r = lower(0)->Open(*this, parts);
  if (!r.ok()) {
    return;
  }
  uint8_t pkt[kPacketSize];
  WireWriter w(pkt);
  w.PutU8(kOpReply);
  w.PutU8(0);
  w.PutIpAddr(my_ip_);
  w.PutEthAddr(my_eth_);
  w.PutIpAddr(requester_ip);
  w.PutEthAddr(requester_eth);
  Message msg = Message::FromBytes(pkt);
  ++replies_sent_;
  (void)(*r)->Push(msg);
}

Status ArpProtocol::DoDemux(Session* lls, Message& msg) {
  (void)lls;
  uint8_t pkt[kPacketSize];
  if (!msg.PopHeader(pkt)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kPacketSize);
  WireReader r(pkt);
  const uint8_t op = r.GetU8();
  r.Skip(1);
  const IpAddr sender_ip = r.GetIpAddr();
  const EthAddr sender_eth = r.GetEthAddr();
  const IpAddr target_ip = r.GetIpAddr();

  // Every ARP packet teaches us the sender's binding.
  cache_[sender_ip] = sender_eth;

  // Complete any resolution waiting on the sender.
  if (auto it = pending_.find(sender_ip); it != pending_.end()) {
    Pending p = std::move(it->second);
    pending_.erase(it);
    kernel().CancelTimer(p.timer);
    for (auto& cb : p.waiters) {
      cb(sender_eth);
    }
  }

  if (op == kOpRequest && target_ip == my_ip_) {
    SendReply(sender_ip, sender_eth);
  }
  return OkStatus();
}

Status ArpProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kResolve: {
      auto hit = Lookup(args.ip);
      if (!hit) {
        return ErrStatus(StatusCode::kNotFound);
      }
      args.eth = *hit;
      return OkStatus();
    }
    case ControlOp::kResolveTest:
      args.u64 = Lookup(args.ip).has_value() ? 1 : 0;
      return OkStatus();
    case ControlOp::kAddResolveEntry:
      cache_[args.ip] = args.eth;
      return OkStatus();
    default:
      return ErrStatus(StatusCode::kUnsupported);
  }
}

}  // namespace xk
