// ICMP: echo request/reply (enough of ICMP for reachability probes and for a
// second, non-RPC client of the IP substrate).

#ifndef XK_SRC_PROTO_ICMP_H_
#define XK_SRC_PROTO_ICMP_H_

#include <functional>
#include <map>

#include "src/core/kernel.h"
#include "src/core/protocol.h"

namespace xk {

class IcmpProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 8;  // type, code, checksum, id, seq
  static constexpr SimTime kTimeout = Msec(500);  // echo reply wait

  // `ip` is the delivery protocol below (IP, or anything IP-semantics like
  // VIP).
  IcmpProtocol(Kernel& kernel, Protocol* ip);

  // Called with the echo round-trip time, or an error after the timeout.
  using PingCallback = std::function<void(Result<SimTime>)>;

  // Sends an echo request with `payload_len` bytes; must run within a task.
  void Ping(IpAddr dest, size_t payload_len, PingCallback done);

  uint64_t echoes_answered() const { return echoes_answered_; }

 protected:
  Status DoDemux(Session* lls, Message& msg) override;

 private:
  struct Pending {
    SimTime sent_at;
    PingCallback done;
    EventHandle timer;
  };

  uint16_t next_id_ = 1;
  std::map<uint16_t, Pending> pending_;
  uint64_t echoes_answered_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_PROTO_ICMP_H_
