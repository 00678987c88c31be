// Topology builder: assembles simulated internetworks (hosts, Ethernet
// segments, routers) with the standard substrate stack (ETH + ARP + IP) on
// every node. Tests, benchmarks, and examples build their experiment
// networks through this.
//
// The paper's testbed -- "a pair of Sun 3/75s connected by an isolated 10Mbps
// ethernet" -- is Internet::TwoHosts(); multi-segment topologies exercise the
// routed (non-local) paths that motivate VIP.

#ifndef XK_SRC_PROTO_TOPOLOGY_H_
#define XK_SRC_PROTO_TOPOLOGY_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/kernel.h"
#include "src/proto/arp.h"
#include "src/proto/eth.h"
#include "src/proto/ip.h"
#include "src/sim/event_queue.h"
#include "src/sim/link.h"
#include "src/trace/pcap.h"
#include "src/trace/trace.h"

namespace xk {

// The substrate protocols of one node. Higher layers (VIP, RPC, ...) are
// added by the stack builders in src/app.
struct HostStack {
  Kernel* kernel = nullptr;
  EthProtocol* eth = nullptr;  // first interface (hosts have exactly one)
  ArpProtocol* arp = nullptr;
  IpProtocol* ip = nullptr;
};

class Internet {
 public:
  explicit Internet(HostEnv default_env = HostEnv::kXKernel, uint64_t seed = 1);
  ~Internet();

  Internet(const Internet&) = delete;
  Internet& operator=(const Internet&) = delete;

  // --- construction -----------------------------------------------------------

  // Adds an Ethernet segment; returns its id.
  int AddSegment(WireModel wire = WireModel{});

  // Adds a host with the substrate stack on `segment`, in the Internet's
  // environment.
  HostStack& AddHost(const std::string& name, int segment, IpAddr ip);

  // Adds a router attached to several segments (one (segment, address) pair
  // per interface), with IP forwarding enabled.
  HostStack& AddRouter(const std::string& name,
                       std::vector<std::pair<int, IpAddr>> attachments);

  // Installs static ARP entries for every same-segment pair, modeling the
  // warm caches of the paper's steady-state measurements.
  void WarmArp();

  // Sets `host`'s default gateway.
  void SetDefaultGateway(const std::string& host, IpAddr gw);

  // --- crash / recovery -------------------------------------------------------

  // Crashes `host`: cancels its pending events and destroys its protocol
  // graph (Kernel::Crash), detaching its NIC from the segment. Frames already
  // in flight toward it are dropped at arrival (segment down_drops). Safe to
  // call from a task running on that host (how FaultEngine does it) or from
  // test code outside any task.
  void CrashHost(const std::string& host);

  // Restarts a crashed host: bumps the boot id, rebuilds the substrate stack
  // (ETH + ARP + IP, same addresses and station id), restores its default
  // gateway, re-warms its ARP entries if WarmArp() had run, and finally
  // invokes the host's restart hook (if set) to rebuild the upper layers.
  // Only plain hosts restart; routers don't. Returns the rebuilt stack.
  HostStack& RestartHost(const std::string& host);

  // Called at the end of RestartHost (inside the host's reboot task) so the
  // experiment can rebuild upper-layer protocols and anchors on the fresh
  // substrate. The HostStack passed is the host's live entry.
  void set_restart_hook(const std::string& host, std::function<void(HostStack&)> hook);

  // --- canned topologies ------------------------------------------------------

  // The paper's testbed: two hosts, one isolated segment, warm caches.
  // Hosts are "client" (10.0.1.1) and "server" (10.0.1.2).
  static std::unique_ptr<Internet> TwoHosts(HostEnv env = HostEnv::kXKernel);

  // Two segments joined by a router; "client" (10.0.1.1) and "server"
  // (10.0.2.1) are on different segments, default routes installed.
  static std::unique_ptr<Internet> TwoSegments(HostEnv env = HostEnv::kXKernel);

  // --- observability ----------------------------------------------------------
  // The constructor picks up TraceSink::thread_default() and
  // PacketCapture::thread_default() and attaches them to every kernel and
  // segment added later: to observe an experiment, install the defaults
  // before building it.

  // Per-protocol counters for every host plus per-link statistics (including
  // fault-injection outcomes), as one JSON document.
  std::string CountersJson() const;

  // --- access -----------------------------------------------------------------
  // The simulation's single event queue, shared by every kernel and segment.
  // Schedule work through kernels, not directly on this queue.
  EventQueue& events() { return events_; }
  EthernetSegment& segment(int id) { return *segments_[id]; }
  const EthernetSegment& segment(int id) const { return *segments_[id]; }
  size_t num_segments() const { return segments_.size(); }
  HostStack& host(const std::string& name);

  // Events fired across the whole simulation.
  uint64_t events_fired() const { return events_.fired_total(); }

  // Runs the simulation to quiescence; returns events fired.
  size_t RunAll() { return events_.Run(); }

 private:
  struct Attachment {
    IpAddr ip;
    EthAddr eth;
    ArpProtocol* arp;
  };

  // One host plus everything needed to rebuild its substrate after a crash.
  struct HostEntry {
    std::string name;
    HostStack stack;
    int segment = -1;  // -1: router (multiple attachments; restart unsupported)
    IpAddr ip{};
    std::optional<IpAddr> gateway;
    std::function<void(HostStack&)> restart_hook;
  };

  HostEntry& FindEntry(const std::string& name);
  // Builds ETH+ARP+IP for `e` inside a configuration task on its kernel
  // (shared by AddHost and RestartHost).
  void BuildSubstrate(HostEntry& e);

  HostEnv default_env_;
  EventQueue events_;
  uint64_t seed_;
  TraceSink* trace_ = nullptr;
  PacketCapture* capture_ = nullptr;
  uint32_t next_eth_index_ = 1;
  std::vector<std::unique_ptr<EthernetSegment>> segments_;
  std::vector<std::vector<Attachment>> attachments_;  // per segment
  std::vector<std::unique_ptr<Kernel>> kernels_;
  bool warmed_ = false;  // WarmArp() has run; restarted hosts re-warm
  // deque: AddHost/AddRouter return stable references into this container.
  std::deque<HostEntry> hosts_;
};

}  // namespace xk

#endif  // XK_SRC_PROTO_TOPOLOGY_H_
