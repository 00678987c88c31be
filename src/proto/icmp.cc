#include "src/proto/icmp.h"

#include "src/core/wire.h"

namespace xk {

namespace {
constexpr uint8_t kEchoReply = 0;
constexpr uint8_t kEchoRequest = 8;
}  // namespace

IcmpProtocol::IcmpProtocol(Kernel& kernel, Protocol* ip) : Protocol(kernel, "icmp", {ip}) {
  ParticipantSet enable;
  enable.local.ip_proto = kIpProtoIcmp;
  (void)lower(0)->OpenEnable(*this, enable);
}

void IcmpProtocol::Ping(IpAddr dest, size_t payload_len, PingCallback done) {
  ParticipantSet parts;
  parts.local.ip_proto = kIpProtoIcmp;
  parts.peer.host = dest;
  Result<SessionRef> sess = lower(0)->Open(*this, parts);
  if (!sess.ok()) {
    done(sess.status());
    return;
  }
  const uint16_t id = next_id_++;
  uint8_t hdr[kHeaderSize];
  WireWriter w(hdr);
  w.PutU8(kEchoRequest);
  w.PutU8(0);
  w.PutU16(0);  // checksum unused: IP validates its header; payload is simulated
  w.PutU16(id);
  w.PutU16(0);  // seq
  Message msg(payload_len);
  kernel().ChargeHdrStore(kHeaderSize);
  msg.PushHeader(hdr);

  Pending& p = pending_[id];
  p.sent_at = kernel().cpu().now();
  p.done = std::move(done);
  p.timer = kernel().SetTimer(kTimeout, [this, id]() {
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      return;
    }
    PingCallback cb = std::move(it->second.done);
    pending_.erase(it);
    cb(ErrStatus(StatusCode::kTimeout));
  });
  (void)(*sess)->Push(msg);
}

Status IcmpProtocol::DoDemux(Session* lls, Message& msg) {
  uint8_t hdr[kHeaderSize];
  if (!msg.PopHeader(hdr)) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  kernel().ChargeHdrLoad(kHeaderSize);
  WireReader r(hdr);
  const uint8_t type = r.GetU8();
  r.Skip(3);
  const uint16_t id = r.GetU16();

  if (type == kEchoRequest) {
    // Reply through the session the request arrived on (its peer is the
    // requester).
    if (lls == nullptr) {
      return ErrStatus(StatusCode::kInvalidArgument);
    }
    uint8_t reply_hdr[kHeaderSize] = {kEchoReply, 0, 0, 0,
                                      static_cast<uint8_t>(id >> 8), static_cast<uint8_t>(id),
                                      0, 0};
    kernel().ChargeHdrStore(kHeaderSize);
    msg.PushHeader(reply_hdr);
    ++echoes_answered_;
    return lls->Push(msg);
  }
  if (type == kEchoReply) {
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      return OkStatus();  // late reply
    }
    Pending p = std::move(it->second);
    pending_.erase(it);
    kernel().CancelTimer(p.timer);
    p.done(kernel().cpu().now() - p.sent_at);
    return OkStatus();
  }
  return OkStatus();
}

}  // namespace xk
