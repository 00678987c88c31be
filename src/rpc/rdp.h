// RDP: a reliable datagram protocol built on CHANNEL.
//
// The paper notes that once CHANNEL exists as an independent protocol "it is
// trivial to build a reliable datagram protocol on top of CHANNEL" -- this is
// that protocol. A datagram is a channel call whose reply is empty: the
// caller gets at-most-once, acknowledged delivery; the receiver's anchor sees
// a plain one-way datagram (the empty reply is generated here and never shown
// to either application).

#ifndef XK_SRC_RPC_RDP_H_
#define XK_SRC_RPC_RDP_H_

#include <map>
#include <memory>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/tools/semaphore.h"

namespace xk {

class RdpProtocol : public Protocol {
 public:
  static constexpr int kNumChannels = 4;

  // `lower` is CHANNEL.
  RdpProtocol(Kernel& kernel, Protocol* lower, std::string name = "rdp");

  void SessionError(Session& lls, Status error, const Message* request) override;

  struct Stats {
    uint64_t datagrams_delivered = 0;
  };
  const Stats& stats() const { return stats_; }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;

 private:
  friend class RdpSession;
  struct Pool {
    std::vector<SessionRef> channels;
    std::vector<bool> busy;
    std::unique_ptr<XSemaphore> available;
  };
  Result<Pool*> PoolFor(IpAddr peer);
  void ReleaseChannelFor(Session* channel);

  DemuxMap<IpAddr> active_;
  Protocol* enabled_hlp_ = nullptr;
  std::map<IpAddr, Pool> pools_;
  DemuxMap<Session*, SessionRef> sends_;  // busy channel -> rdp session
  Stats stats_;
};

class RdpSession : public Session {
 public:
  RdpSession(RdpProtocol& owner, Protocol* hlp, IpAddr peer);

  IpAddr peer() const { return peer_; }

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  RdpProtocol& rdp_;
  IpAddr peer_;
};

}  // namespace xk

#endif  // XK_SRC_RPC_RDP_H_
