// Mix-and-match RPC (paper, Section 5).
//
// Decomposed Sun RPC lets you assemble a transport from parts:
//
//   SUN_SELECT - REQUEST_REPLY - FRAGMENT - VIP     faithful Sun semantics
//   SUN_SELECT - AUTH_CRED - REQUEST_REPLY - ...    with authentication
//   SUN_SELECT - CHANNEL - FRAGMENT - VIP           at-most-once Sun RPC
//
// This example runs the same duplicated-request experiment against the first
// and third stacks: with REQUEST_REPLY the server executes the call twice
// (zero-or-more); with CHANNEL swapped in, exactly once -- no other layer
// changes. It then shows AUTH_CRED rejecting a caller.

#include <cstdio>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/proto/topology.h"
#include "src/rpc/sun/auth.h"
#include "src/rpc/sun/sun_select.h"

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

World Build(SunPairing pairing, SunAuth auth) {
  World w;
  w.net = Internet::TwoHosts();
  w.ch = &w.net->host("client");
  w.sh = &w.net->host("server");
  w.cstack = BuildSunRpc(*w.ch, pairing, auth);
  w.sstack = BuildSunRpc(*w.sh, pairing, auth);
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
    World w = Build(SunPairing::kRequestReply, SunAuth::kNone);
    ExportCounter(w);
    CallOnceWithDuplicatedRequest(w);
    std::printf("procedure executed %d time(s)  <- duplicates re-execute\n\n", w.executions);
  }

  std::printf("=== same experiment, CHANNEL swapped in (at-most-once) ===\n");
  {
    World w = Build(SunPairing::kChannel, SunAuth::kNone);
    ExportCounter(w);
    CallOnceWithDuplicatedRequest(w);
    std::printf("procedure executed %d time(s)  <- CHANNEL suppressed the duplicate\n\n",
                w.executions);
  }

  std::printf("=== AUTH_CRED inserted as an optional layer ===\n");
  {
    World w = Build(SunPairing::kRequestReply, SunAuth::kAuthCred);
    ExportCounter(w);
    w.ch->kernel->RunTask(0, [&] {
      static_cast<AuthCredProtocol*>(w.cstack.auth)->SetCredentials(1001, 100);
    });
    w.sh->kernel->RunTask(0, [&] {
      static_cast<AuthCredProtocol*>(w.sstack.auth)->AllowUid(42);  // 1001 NOT allowed
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
