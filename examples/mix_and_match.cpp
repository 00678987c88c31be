// Mix-and-match RPC (paper, Section 5).
//
// Decomposed Sun RPC lets you assemble a transport from parts:
//
//   sunselect/reqrep/fragment/vip             faithful Sun semantics
//   sunselect/authcred/reqrep/fragment/vip    with authentication
//   sunselect/channel/fragment/vip            at-most-once Sun RPC
//
// This example runs the same duplicated-request experiment against the first
// and third stacks: with REQUEST_REPLY the server executes the call twice
// (zero-or-more); with CHANNEL swapped in, exactly once -- no other layer
// changes. It then shows AUTH_CRED rejecting a caller.

#include <cstdio>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/proto/topology.h"

using namespace xk;

namespace {

constexpr uint32_t kProg = 200001;
constexpr uint16_t kVers = 1;
constexpr uint16_t kProcIncr = 1;

struct World {
  std::unique_ptr<Internet> net;
  HostStack* ch;
  HostStack* sh;
  RpcStack cstack, sstack;
  RpcClient* client = nullptr;
  RpcServer* server = nullptr;
  int executions = 0;
};

World Build(std::string_view spec) {
  World w;
  w.net = Internet::TwoHosts();
  w.ch = &w.net->host("client");
  w.sh = &w.net->host("server");
  w.cstack = BuildStack(*w.ch, spec);
  w.sstack = BuildStack(*w.sh, spec);
  w.ch->kernel->RunTask(0, [&] {
    w.client = &w.ch->kernel->Emplace<RpcClient>(*w.ch->kernel, w.cstack.top);
  });
  return w;
}

void ExportCounter(World& w) {
  w.sh->kernel->RunTask(0, [&] {
    w.server = &w.sh->kernel->Emplace<RpcServer>(*w.sh->kernel, w.sstack.top);
    (void)w.server->ExportParts(SunProgService(kProg, kVers), [&w](uint16_t, Message& m) {
      ++w.executions;  // count how many times the procedure actually runs
      return m;
    });
  });
}

void CallOnceWithDuplicatedRequest(World& w) {
  // Duplicate the first frame on the wire: a classic retransmission hazard.
  w.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 0 ? LinkFault::kDuplicate : LinkFault::kDeliver;
  });
  w.ch->kernel->ScheduleTask(0, [&] {
    w.client->CallParts(SunProcAddress(w.sh->kernel->ip_addr(), kProg, kVers, kProcIncr),
                        Message(64), [](Result<Message>) {});
  });
  w.net->RunAll();
}

}  // namespace

int main() {
  std::printf("=== duplicated request, REQUEST_REPLY pairing (zero-or-more) ===\n");
  {
    World w = Build("sunselect/reqrep/fragment/vip");
    ExportCounter(w);
    CallOnceWithDuplicatedRequest(w);
    std::printf("procedure executed %d time(s)  <- duplicates re-execute\n\n", w.executions);
  }

  std::printf("=== same experiment, CHANNEL swapped in (at-most-once) ===\n");
  {
    World w = Build("sunselect/channel/fragment/vip");
    ExportCounter(w);
    CallOnceWithDuplicatedRequest(w);
    std::printf("procedure executed %d time(s)  <- CHANNEL suppressed the duplicate\n\n",
                w.executions);
  }

  std::printf("=== AUTH_CRED inserted as an optional layer ===\n");
  {
    World w = Build("sunselect/authcred/reqrep/fragment/vip");
    ExportCounter(w);
    w.ch->kernel->RunTask(0, [&] {
      w.cstack.Get<AuthCredProtocol>()->SetCredentials(1001, 100);
    });
    w.sh->kernel->RunTask(0, [&] {
      w.sstack.Get<AuthCredProtocol>()->AllowUid(42);  // 1001 NOT allowed
    });
    bool rejected = false;
    w.ch->kernel->ScheduleTask(0, [&] {
      w.client->CallParts(SunProcAddress(w.sh->kernel->ip_addr(), kProg, kVers, kProcIncr),
                          Message(16), [&](Result<Message> r) {
                            rejected = !r.ok() && r.status().code() == StatusCode::kRejected;
                          });
    });
    w.net->RunAll();
    std::printf("uid 1001 vs allow-list {42}: call %s; procedure executed %d time(s)\n",
                rejected ? "REJECTED by the auth layer" : "accepted (?)", w.executions);
  }
  return 0;
}
