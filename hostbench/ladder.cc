#include "hostbench/ladder.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "hostbench/workloads.h"
#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/cluster/client.h"
#include "src/cluster/vpool.h"
#include "src/proto/topology.h"

namespace hostbench {

namespace {

constexpr uint16_t kCommand = 1;
constexpr xk::EthType kEthTypeRawEcho = 0x88B5;  // IEEE 802 local experimental
constexpr int kWarmupRoundTrips = 32;
constexpr int kBatch = 64;

// One rung's simulation, ready for back-to-back round trips.
struct Rig {
  const char* name = nullptr;
  const char* span = nullptr;
  std::unique_ptr<xk::Internet> net;
  xk::HostStack* ch = nullptr;
  xk::HostStack* sh = nullptr;
  // Starts one round trip; runs inside a task on the client kernel.
  std::function<void(xk::RpcDone)> issue;
  std::vector<double> batch_ns;  // host ns per round trip, one per batch
  xk::SimTime sim_sum = 0;
  uint64_t round_trips = 0;
};

bool RoundTrip(Rig& rig, xk::SimTime* rtt) {
  bool done = false;
  bool ok = false;
  xk::SimTime issued_at = 0;
  xk::SimTime done_at = 0;
  xk::Kernel* k = rig.ch->kernel;
  k->RunTask(rig.net->events().now(), [&] {
    issued_at = k->now();
    rig.issue([&](xk::Result<xk::Message> r) {
      done = true;
      ok = r.ok();
      done_at = k->now();
    });
  });
  rig.net->RunAll();
  *rtt = done_at - issued_at;
  return done && ok;
}

std::unique_ptr<Rig> NewRig(const char* name, const char* span, bool routed) {
  auto rig = std::make_unique<Rig>();
  rig->name = name;
  rig->span = span;
  rig->net = routed ? xk::Internet::TwoSegments() : xk::Internet::TwoHosts();
  rig->ch = &rig->net->host("client");
  rig->sh = &rig->net->host("server");
  return rig;
}

xk::EchoAnchor* Echo(xk::HostStack& h, bool server_role) {
  xk::EchoAnchor* anchor = nullptr;
  h.kernel->RunTask(h.kernel->events().now(),
                    [&] { anchor = &h.kernel->Emplace<xk::EchoAnchor>(*h.kernel, server_role); });
  return anchor;
}

// Raw ethertype echo: EchoAnchors straight on the Ethernet driver.
std::unique_ptr<Rig> EthRig() {
  auto rig = NewRig("eth", "ladder.eth", false);
  auto* client = Echo(*rig->ch, false);
  auto* server = Echo(*rig->sh, true);
  xk::HostStack& sh = *rig->sh;
  xk::HostStack& ch = *rig->ch;
  sh.kernel->RunTask(sh.kernel->events().now(), [&] {
    xk::ParticipantSet parts;
    parts.local.eth_type = kEthTypeRawEcho;
    (void)sh.eth->OpenEnable(*server, parts);
  });
  xk::SessionRef sess;
  ch.kernel->RunTask(ch.kernel->events().now(), [&] {
    xk::ParticipantSet parts;
    parts.local.eth_type = kEthTypeRawEcho;
    parts.peer.eth = sh.eth->addr();
    xk::Result<xk::SessionRef> r = ch.eth->Open(*client, parts);
    if (r.ok()) {
      sess = *r;
    }
  });
  rig->issue = [client, sess](xk::RpcDone done) {
    client->Send(sess, xk::Message(), std::move(done));
  };
  return rig;
}

// EchoAnchors over BuildPartial(layers): the paper's Table III rows.
std::unique_ptr<Rig> PartialRig(const char* name, const char* span, int layers, size_t bytes,
                                bool null_reply, bool routed) {
  auto rig = NewRig(name, span, routed);
  const xk::RpcStack cstack = xk::BuildPartial(*rig->ch, layers);
  const xk::RpcStack sstack = xk::BuildPartial(*rig->sh, layers);
  auto* client = Echo(*rig->ch, false);
  auto* server = Echo(*rig->sh, true);
  xk::HostStack& sh = *rig->sh;
  xk::HostStack& ch = *rig->ch;
  sh.kernel->RunTask(sh.kernel->events().now(), [&] {
    if (null_reply) {
      server->set_echo_limit(0);
    }
    (void)xk::EnableEcho(sstack, *server);
  });
  xk::SessionRef sess;
  ch.kernel->RunTask(ch.kernel->events().now(), [&] {
    xk::Result<xk::SessionRef> r = xk::OpenEchoSession(cstack, *client, sh.kernel->ip_addr());
    if (r.ok()) {
      sess = *r;
    }
  });
  rig->issue = [client, sess, bytes](xk::RpcDone done) {
    client->Send(sess, xk::Message(bytes), std::move(done));
  };
  return rig;
}

// UDP/IP echo, checksums off as in session-churn.
std::unique_ptr<Rig> UdpRig() {
  auto rig = NewRig("udp", "ladder.udp", false);
  xk::UdpProtocol* cudp = xk::BuildUdp(*rig->ch);
  xk::UdpProtocol* sudp = xk::BuildUdp(*rig->sh);
  cudp->set_checksum_enabled(false);
  sudp->set_checksum_enabled(false);
  auto* client = Echo(*rig->ch, false);
  auto* server = Echo(*rig->sh, true);
  xk::HostStack& sh = *rig->sh;
  xk::HostStack& ch = *rig->ch;
  sh.kernel->RunTask(sh.kernel->events().now(), [&] {
    xk::ParticipantSet parts;
    parts.local.port = 7;
    (void)sudp->OpenEnable(*server, parts);
  });
  xk::SessionRef sess;
  ch.kernel->RunTask(ch.kernel->events().now(), [&] {
    xk::ParticipantSet parts;
    parts.local.port = 1234;
    parts.peer.host = sh.kernel->ip_addr();
    parts.peer.port = 7;
    xk::Result<xk::SessionRef> r = cudp->Open(*client, parts);
    if (r.ok()) {
      sess = *r;
    }
  });
  rig->issue = [client, sess](xk::RpcDone done) {
    client->Send(sess, xk::Message(), std::move(done));
  };
  return rig;
}

// The full L_RPC-VIP stack with RpcClient/RpcServer. `echo8` sends an 8-byte
// call id and echoes it back, the traffic ClusterClient needs, so the VPOOL
// rung differs from this one only by VPOOL and the id-pairing client.
std::unique_ptr<Rig> RpcRig(const char* name, const char* span, bool echo8, bool vpool) {
  auto rig = NewRig(name, span, false);
  const xk::RpcStack cstack = xk::BuildLRpc(*rig->ch);
  const xk::RpcStack sstack = xk::BuildLRpc(*rig->sh);
  xk::HostStack& sh = *rig->sh;
  xk::HostStack& ch = *rig->ch;
  sh.kernel->RunTask(sh.kernel->events().now(), [&] {
    auto& server = sh.kernel->Emplace<xk::RpcServer>(*sh.kernel, sstack.top);
    if (echo8) {
      (void)server.Export(kCommand, [](uint16_t, xk::Message& request) { return request; });
    } else {
      (void)server.Export(kCommand, [](uint16_t, xk::Message&) { return xk::Message(); });
    }
  });
  const xk::IpAddr server_ip = sh.kernel->ip_addr();
  auto next_id = std::make_shared<uint64_t>(0);
  if (vpool) {
    const xk::IpAddr service(10, 99, 0, 1);
    xk::ClusterClient* client = nullptr;
    ch.kernel->RunTask(ch.kernel->events().now(), [&] {
      auto& pool = ch.kernel->Emplace<xk::VpoolProtocol>(*ch.kernel, cstack.top);
      pool.BindService(service, {server_ip}, xk::VpoolPolicy::kRoundRobin);
      client = &ch.kernel->Emplace<xk::ClusterClient>(*ch.kernel, &pool);
    });
    rig->issue = [client, service, next_id](xk::RpcDone done) {
      const uint64_t id = ++*next_id;
      client->Call(service, kCommand, id, xk::AmoOracle::MakeRequest(id, 0), std::move(done));
    };
    return rig;
  }
  xk::RpcClient* client = nullptr;
  ch.kernel->RunTask(ch.kernel->events().now(), [&] {
    client = &ch.kernel->Emplace<xk::RpcClient>(*ch.kernel, cstack.top);
  });
  rig->issue = [client, server_ip, echo8, next_id](xk::RpcDone done) {
    xk::Message args = echo8 ? xk::AmoOracle::MakeRequest(++*next_id, 0) : xk::Message();
    client->Call(server_ip, kCommand, std::move(args), std::move(done));
  };
  return rig;
}

}  // namespace

LadderResult RunLadder(double seconds, SpanRecorder* rec) {
  std::vector<std::unique_ptr<Rig>> rigs;
  rigs.push_back(EthRig());
  rigs.push_back(PartialRig("vip", "ladder.vip", 0, 0, false, false));
  rigs.push_back(PartialRig("fragment", "ladder.fragment", 1, 0, false, false));
  rigs.push_back(PartialRig("channel", "ladder.channel", 2, 0, false, false));
  rigs.push_back(RpcRig("select", "ladder.select", false, false));
  rigs.push_back(PartialRig("fragment-1k", "ladder.fragment-1k", 1, 1024, true, false));
  rigs.push_back(PartialRig("fragment-16k", "ladder.fragment-16k", 1, 16384, true, false));
  rigs.push_back(PartialRig("vip-routed", "ladder.vip-routed", 0, 0, false, true));
  rigs.push_back(UdpRig());
  rigs.push_back(RpcRig("rpc-echo8", "ladder.rpc-echo8", true, false));
  rigs.push_back(RpcRig("vpool", "ladder.vpool", true, true));

  LadderResult out;
  xk::SimTime rtt = 0;
  for (auto& rig : rigs) {
    for (int i = 0; i < kWarmupRoundTrips; ++i) {
      if (!RoundTrip(*rig, &rtt)) {
        out.error = std::string("ladder rung ") + rig->name + ": a warm-up round trip failed";
        return out;
      }
    }
  }
  const Ns deadline = NowNs() + static_cast<Ns>(seconds * 1e9);
  uint64_t round = 0;
  do {
    for (auto& rig : rigs) {
      Scope batch(rec, rig->span, round);
      const Ns b0 = NowNs();
      for (int i = 0; i < kBatch; ++i) {
        if (!RoundTrip(*rig, &rtt)) {
          out.error = std::string("ladder rung ") + rig->name + ": a round trip failed";
          return out;
        }
        rig->sim_sum += rtt;
      }
      rig->batch_ns.push_back(static_cast<double>(NowNs() - b0) / kBatch);
      rig->round_trips += kBatch;
    }
    ++round;
  } while (NowNs() < deadline || round < 3);

  for (const auto& rig : rigs) {
    RungResult r;
    r.name = rig->name;
    r.host_ns = FastTime(rig->batch_ns);
    r.sim_ms = xk::ToMsec(rig->sim_sum) / static_cast<double>(rig->round_trips);
    r.round_trips = rig->round_trips;
    out.rungs.push_back(r);
  }
  auto rung = [&out](const char* name) -> const RungResult& {
    for (const RungResult& r : out.rungs) {
      if (std::string(r.name) == name) {
        return r;
      }
    }
    return out.rungs.front();  // unreachable: every metric names a built rung
  };
  out.metrics = {
      {"proto.eth_ns", "eth", nullptr, 1},
      {"proto.vip_ns", "vip", "eth", 1},
      {"rpc.fragment_ns", "fragment", "vip", 1},
      {"rpc.channel_ns", "channel", "fragment", 1},
      {"rpc.select_ns", "select", "channel", 1},
      {"rpc.fragment_ns_per_kb", "fragment-16k", "fragment-1k", 15},
      {"proto.ip_route_ns", "vip-routed", "vip", 1},
      {"proto.udp_ip_ns", "udp", "eth", 1},
      {"cluster.vpool_ns", "vpool", "rpc-echo8", 1},
  };
  for (LadderMetric& m : out.metrics) {
    const RungResult& top = rung(m.rung);
    const double base_ns = m.base != nullptr ? rung(m.base).host_ns : 0;
    const double base_ms = m.base != nullptr ? rung(m.base).sim_ms : 0;
    m.value = (top.host_ns - base_ns) / m.divisor;
    m.sim_ms = (top.sim_ms - base_ms) / m.divisor;
  }
  return out;
}

}  // namespace hostbench
