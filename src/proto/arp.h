// ARP: Ethernet address resolution.
//
// VIP decides whether a destination is on the local Ethernet by "trying to
// resolve the IP address using ARP" (paper, Section 3.1); IP uses ARP to find
// the Ethernet address of a local destination or of the gateway.
//
// Resolution is exposed two ways:
//  * Control(kResolve / kResolveTest): cache-only, synchronous -- this is the
//    fast path VIP uses at open time once the cache is warm.
//  * Resolve(ip, callback): asynchronous -- broadcasts a request and retries
//    until a reply arrives or the retry limit is exhausted. Used on a cold
//    cache by the OpenAsync paths.

#ifndef XK_SRC_PROTO_ARP_H_
#define XK_SRC_PROTO_ARP_H_

#include <functional>
#include <map>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/protocol.h"
#include "src/sim/event_queue.h"

namespace xk {

class ArpProtocol : public Protocol {
 public:
  static constexpr size_t kPacketSize = 22;  // op + 2x(ip, eth)
  static constexpr int kDefaultRetries = 3;
  static constexpr SimTime kRetryTimeout = Msec(100);

  // `eth` is the Ethernet protocol ARP broadcasts through. `my_ip` defaults
  // to the kernel's address; routers pass the interface's address (and a
  // distinct `name`, e.g. "arp0").
  ArpProtocol(Kernel& kernel, Protocol* eth, std::optional<IpAddr> my_ip = std::nullopt,
              std::string name = "arp");

  using ResolveCallback = std::function<void(Result<EthAddr>)>;

  // Asynchronous resolution; completes from cache immediately when warm.
  // Must be called from within a task.
  void Resolve(IpAddr ip, ResolveCallback done);

  // Cache-only lookup (no traffic). nullopt on miss.
  std::optional<EthAddr> Lookup(IpAddr ip) const;

  // Cache-only reverse lookup: which IP address advertised `eth`?
  std::optional<IpAddr> ReverseLookup(EthAddr eth) const;

  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t replies_sent() const { return replies_sent_; }

 protected:
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  struct Pending {
    std::vector<ResolveCallback> waiters;
    int attempts = 0;
    EventHandle timer;
  };

  void SendRequest(IpAddr target);
  void SendReply(IpAddr target_ip, EthAddr target_eth);
  void RetryOrFail(IpAddr target);
  SessionRef BroadcastSession();

  IpAddr my_ip_;
  EthAddr my_eth_;
  std::map<IpAddr, EthAddr> cache_;
  std::map<IpAddr, Pending> pending_;
  SessionRef bcast_;
  uint64_t requests_sent_ = 0;
  uint64_t replies_sent_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_PROTO_ARP_H_
