// VIP: Virtual IP (paper, Section 3.1).
//
// A virtual protocol is a HEADER-LESS protocol that accepts messages from
// high-level protocols and dynamically multiplexes them onto lower protocols
// that provide approximately the same semantics. VIP provides IP semantics
// (unreliable delivery to hosts named by IP addresses) but routes each
// message to ETH or to IP:
//
//  * at OPEN time it asks the invoking protocol how large its messages can be
//    (control kGetMaxSendSize) and asks ARP whether the destination resolves
//    (resolvable => the host is on the local Ethernet). It then opens an ETH
//    session, an IP session, or both;
//  * at PUSH time the only overhead is a single message-length test.
//
// Because VIP adds no header, the peer's VIP must be able to recognize
// VIP-routed Ethernet frames: VIP maps the 8-bit IP protocol number onto a
// reserved range of 256 Ethernet types (kEthTypeVipBase + proto).
//
// Sessions are slab-pooled and idle-tracked (the session class precedes the
// protocol so the pool member sees a complete type). An upper session holding
// a VIP session as its lower keeps it referenced, so VIP sessions age out
// bottom-up only after their users have been evicted.

#ifndef XK_SRC_PROTO_VIP_H_
#define XK_SRC_PROTO_VIP_H_

#include <tuple>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/proto/arp.h"
#include "src/sim/slab_pool.h"

namespace xk {

// The VIP protocol-number -> Ethernet-type mapping ("VIP maps IP protocol
// numbers onto an unused range of 256 ethernet types").
constexpr EthType VipEthTypeFor(IpProtoNum proto) {
  return static_cast<EthType>(kEthTypeVipBase + proto);
}

class VipProtocol;

class VipSession final : public Session {
 public:
  VipSession(VipProtocol& owner, Protocol* hlp, std::optional<IpAddr> peer, IpProtoNum proto,
             SessionRef eth_sess, SessionRef ip_sess, size_t eth_mtu);

  bool has_eth_path() const { return eth_sess_ != nullptr; }
  bool has_ip_path() const { return ip_sess_ != nullptr; }

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override {
    return ip_sess_ != nullptr ? ip_sess_.get() : eth_sess_.get();
  }

 private:
  friend class VipProtocol;
  VipProtocol& vip_;
  std::optional<IpAddr> peer_;
  IpProtoNum proto_;
  SessionRef eth_sess_;  // null when the peer is off-link
  SessionRef ip_sess_;   // null when every message fits on the local wire
  size_t eth_mtu_;
};

class VipProtocol final : public Protocol {
 public:
  VipProtocol(Kernel& kernel, Protocol* eth, Protocol* ip, ArpProtocol* arp,
              std::string name = "vip");

  void OpenAsync(Protocol& hlp, const ParticipantSet& parts, OpenCallback done) override;

  Status OpenDoneUp(Protocol& llp, SessionRef lls, const ParticipantSet& parts) override;

  // Live VipSessions (slab-pooled).
  size_t live_sessions() const { return pool_.live(); }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  bool EvictSession(Session& s) override;

 private:
  friend class VipSession;
  using Key = std::tuple<IpAddr, IpProtoNum>;

  Protocol* eth() const { return lower(0); }
  Protocol* ip() const { return lower(1); }

  // Builds the session once locality (local_eth set => on-link) is known.
  Result<SessionRef> FinishOpen(Protocol& hlp, IpAddr peer, IpProtoNum proto,
                                std::optional<EthAddr> local_eth, uint64_t max_send);

  size_t EthMtu();

  ArpProtocol* arp_;
  SlabPool<VipSession> pool_;
  DemuxMap<Key> active_;
  DemuxMap<IpProtoNum, Protocol*> passive_;
  DemuxMap<Session*, SessionRef> by_lls_;  // lower session -> VIP session
};

}  // namespace xk

#endif  // XK_SRC_PROTO_VIP_H_
