// Quickstart: the smallest complete x-kernel RPC program.
//
// Builds the paper's testbed (two simulated Sun 3/75s on an isolated 10 Mbps
// Ethernet), configures layered Sprite RPC (SELECT-CHANNEL-FRAGMENT-VIP) on
// both hosts, exports a procedure, and calls it.
//
//   $ ./quickstart
//   reply: "hello, client" (23 bytes) in 1.96 ms of simulated time

#include <cstdio>
#include <string>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/proto/topology.h"

using namespace xk;

namespace {
constexpr uint16_t kCmdGreet = 1;

Message FromString(const std::string& s) {
  return Message::FromBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
}

std::string ToString(const Message& m) {
  auto bytes = m.Flatten();
  return std::string(bytes.begin(), bytes.end());
}
}  // namespace

int main() {
  // 1. The testbed: two hosts, one wire, warm ARP caches.
  std::unique_ptr<Internet> net = Internet::TwoHosts();
  HostStack& client_host = net->host("client");
  HostStack& server_host = net->host("server");

  // 2. The protocol graph: layered Sprite RPC over the virtual protocol.
  RpcStack client_stack = BuildStack(client_host, kLRpcVip);
  RpcStack server_stack = BuildStack(server_host, kLRpcVip);

  // 3. The server side: export a procedure.
  server_host.kernel->RunTask(0, [&] {
    auto& server = server_host.kernel->Emplace<RpcServer>(*server_host.kernel,
                                                          server_stack.top);
    (void)server.Export(kCmdGreet, [](uint16_t, Message& request) {
      std::printf("server: got \"%s\"\n", ToString(request).c_str());
      return FromString("hello, client");
    });
  });

  // 4. The client side: call it.
  RpcClient* client = nullptr;
  client_host.kernel->RunTask(0, [&] {
    client = &client_host.kernel->Emplace<RpcClient>(*client_host.kernel, client_stack.top);
  });

  SimTime started = 0;
  client_host.kernel->ScheduleTask(0, [&] {
    started = client_host.kernel->now();
    client->Call(server_host.kernel->ip_addr(), kCmdGreet, FromString("hello, server"),
                 [&](Result<Message> reply) {
                   if (!reply.ok()) {
                     std::printf("call failed: %s\n", StatusCodeName(reply.status().code()));
                     return;
                   }
                   const SimTime elapsed = client_host.kernel->now() - started;
                   std::printf("reply: \"%s\" (%zu bytes) in %.2f ms of simulated time "
                               "(first call: includes session setup)\n",
                               ToString(*reply).c_str(), (*reply).length(), ToMsec(elapsed));
                 });
  });

  // 5. Run the simulation to quiescence.
  net->RunAll();
  return 0;
}
