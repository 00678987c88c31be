// UDP: unreliable datagram service with ports.
//
// Two roles in the reproduction:
//  * the Section 1 cross-kernel comparison (x-kernel UDP/IP at 2.00 ms vs
//    SunOS at 5.36 ms) runs UDP over IP over ETH under the two environments;
//  * UDP is the paper's example of a protocol whose maximum send size is
//    "arbitrarily large" (it depends on IP to fragment), which exercises
//    VIP's open-both-sessions path.
//
// Note on layering hygiene: the paper's Discussion faults TCP for depending
// on fields inside the IP header. Our UDP asks its lower session for the
// source/destination hosts through control operations (kGetMyHost /
// kGetPeerHost) when computing the pseudo-header checksum, so it composes
// with anything offering IP semantics -- including VIP.
//
// Sessions are slab-pooled (SlabPool) and idle-tracked: create/destroy is
// allocation-free at steady state and kSetIdleTimeout/kEvictIdle reclaim
// cold connections. The session class is defined before the protocol so the
// pool member sees a complete type.

#ifndef XK_SRC_PROTO_UDP_H_
#define XK_SRC_PROTO_UDP_H_

#include <tuple>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/sim/slab_pool.h"

namespace xk {

class UdpProtocol;

class UdpSession : public Session {
 public:
  UdpSession(UdpProtocol& owner, Protocol* hlp, SessionRef lower, IpAddr peer, uint16_t peer_port,
             uint16_t local_port);

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

 private:
  friend class UdpProtocol;  // eviction needs the demux key

  UdpProtocol& udp_;
  SessionRef lower_;
  IpAddr peer_;
  uint16_t peer_port_;
  uint16_t local_port_;
};

class UdpProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 8;

  // `ip` is the delivery protocol below (IP or VIP).
  UdpProtocol(Kernel& kernel, Protocol* ip, std::string name = "udp");

  // The paper-faithful default computes a checksum over the pseudo-header
  // and payload; tests can disable it.
  void set_checksum_enabled(bool on) { checksum_enabled_ = on; }
  bool checksum_enabled() const { return checksum_enabled_; }

  uint64_t checksum_failures() const { return checksum_failures_; }

  // Live UdpSessions (slab-pooled).
  size_t live_sessions() const { return pool_.live(); }

  // Demux-table and slab introspection for the session_scale bench.
  const DemuxMap<std::tuple<IpAddr, uint16_t, uint16_t>>& active_map() const { return active_; }
  size_t session_slots() const { return pool_.capacity(); }
  size_t session_high_water() const { return pool_.high_water(); }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  bool EvictSession(Session& s) override;

 private:
  friend class UdpSession;
  using Key = std::tuple<IpAddr, uint16_t, uint16_t>;  // (peer, peer port, local port)

  SlabPool<UdpSession> pool_;
  DemuxMap<Key> active_;
  DemuxMap<uint16_t, Protocol*> passive_;  // local port -> hlp
  bool checksum_enabled_ = true;
  uint64_t checksum_failures_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_PROTO_UDP_H_
