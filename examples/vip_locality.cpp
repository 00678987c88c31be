// VIP locality (paper, Section 3.1): one distributed system, two distances.
//
// A client talks to two servers running the identical M_RPC-VIP stack: one on
// its own Ethernet, one across a router. VIP decides per destination at open
// time -- raw Ethernet for the local server, IP for the remote one -- so the
// local calls pay no internet tax, and nothing in the RPC code knows the
// difference. This is exactly the Sprite problem that motivated virtual
// protocols: "inserting IP between Sprite RPC and the ethernet automatically
// implies a 21% performance penalty" for hosts that never needed it.

#include <cstdio>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/app/workload.h"
#include "src/proto/topology.h"

using namespace xk;

namespace {
constexpr uint16_t kCmd = 1;
}  // namespace

int main() {
  // Topology: client + local server on segment A; remote server on segment B
  // behind a router.
  auto net = std::make_unique<Internet>();
  const int seg_a = net->AddSegment();
  const int seg_b = net->AddSegment();
  net->AddHost("client", seg_a, IpAddr(10, 0, 1, 1));
  net->AddHost("local", seg_a, IpAddr(10, 0, 1, 2));
  net->AddHost("remote", seg_b, IpAddr(10, 0, 2, 1));
  net->AddRouter("router", {{seg_a, IpAddr(10, 0, 1, 254)}, {seg_b, IpAddr(10, 0, 2, 254)}});
  net->WarmArp();
  net->SetDefaultGateway("client", IpAddr(10, 0, 1, 254));
  net->SetDefaultGateway("remote", IpAddr(10, 0, 2, 254));

  HostStack& ch = net->host("client");
  RpcStack cstack = BuildStack(ch, kMRpcVip);
  RpcClient* client = nullptr;
  ch.kernel->RunTask(0, [&] { client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, cstack.top); });

  for (const char* name : {"local", "remote"}) {
    HostStack& sh = net->host(name);
    RpcStack sstack = BuildStack(sh, kMRpcVip);
    sh.kernel->RunTask(0, [&] {
      auto& server = sh.kernel->Emplace<RpcServer>(*sh.kernel, sstack.top);
      (void)server.Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
  }

  for (const char* name : {"local", "remote"}) {
    HostStack& sh = net->host(name);
    CallFn call = [&](Message args, std::function<void(Result<Message>)> done) {
      client->Call(sh.kernel->ip_addr(), kCmd, std::move(args), std::move(done));
    };
    LatencyResult lat = RpcWorkload::MeasureLatency(*net, *ch.kernel, call, 32);
    std::printf("%-8s server: %6.2f ms null-call round trip\n", name, ToMsec(lat.per_call));
  }

  // Show what VIP decided: IP datagrams only flowed for the remote server.
  std::printf("\nclient IP datagrams sent: %lu (remote traffic only)\n",
              static_cast<unsigned long>(ch.ip->stats().datagrams_sent));
  std::printf("router forwards:          %lu\n",
              static_cast<unsigned long>(net->host("router").ip->stats().forwards));
  std::printf("\nSame RPC code, same VIP; the local path never paid for IP.\n");
  return 0;
}
