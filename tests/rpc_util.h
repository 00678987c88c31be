// Shared fixture for RPC-layer tests: builds a configuration on both hosts of
// a two-host topology, attaches client/server anchors, and provides a
// synchronous call helper that drives the simulation to quiescence.

#ifndef XK_TESTS_RPC_UTIL_H_
#define XK_TESTS_RPC_UTIL_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/proto/topology.h"
#include "tests/test_util.h"

namespace xk {

class RpcFixture {
 public:
  explicit RpcFixture(std::unique_ptr<Internet> the_net = nullptr)
      : net(the_net ? std::move(the_net) : Internet::TwoHosts()),
        ch(&net->host("client")),
        sh(&net->host("server")) {}

  // Builds the same stack spec on both hosts and attaches anchors. The server
  // exports an echo handler for every command unless `export_echo` is false.
  // Also installs restart hooks so crashed hosts rebuild the same stack (and
  // refresh the fixture's pointers) when Internet::RestartHost brings them
  // back.
  void Build(std::string_view spec, bool export_echo = true) {
    cstack = BuildStack(*ch, spec);
    sstack = BuildStack(*sh, spec);
    RunIn(*ch->kernel,
          [&] { client = &ch->kernel->Emplace<RpcClient>(*ch->kernel, cstack.top); });
    RunIn(*sh->kernel, [&] {
      server = &sh->kernel->Emplace<RpcServer>(*sh->kernel, sstack.top);
      if (export_echo) {
        EXPECT_TRUE(server
                        ->Export(RpcServer::kAny,
                                 [](uint16_t, Message& request) { return request; })
                        .ok());
      }
    });
    net->set_restart_hook("client", [this, spec = std::string(spec)](HostStack& h) {
      cstack = BuildStack(h, spec);
      client = &h.kernel->Emplace<RpcClient>(*h.kernel, cstack.top);
    });
    net->set_restart_hook("server", [this, spec = std::string(spec), export_echo](HostStack& h) {
      sstack = BuildStack(h, spec);
      server = &h.kernel->Emplace<RpcServer>(*h.kernel, sstack.top);
      if (export_echo) {
        (void)server->Export(RpcServer::kAny,
                             [](uint16_t, Message& request) { return request; });
      }
    });
  }

  // Issues one call and runs the simulation until it completes (or fails).
  Result<Message> CallSync(uint16_t command, Message args) {
    Result<Message> result = ErrStatus(StatusCode::kError);
    bool done = false;
    RunIn(*ch->kernel, [&] {
      client->Call(sh->kernel->ip_addr(), command, std::move(args), [&](Result<Message> r) {
        result = std::move(r);
        done = true;
      });
    });
    net->RunAll();
    EXPECT_TRUE(done) << "call never completed";
    return result;
  }

  IpAddr server_addr() const { return sh->kernel->ip_addr(); }

  std::unique_ptr<Internet> net;
  HostStack* ch;
  HostStack* sh;
  RpcStack cstack;
  RpcStack sstack;
  RpcClient* client = nullptr;
  RpcServer* server = nullptr;
};

}  // namespace xk

#endif  // XK_TESTS_RPC_UTIL_H_
