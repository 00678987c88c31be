// Allocation budget for the steady-state call path.
//
// The paper's message and map tools win by not allocating per message; this
// test holds the simulator to the same rule on the host. It replaces the
// global operator new with a counting one (which is why it is its own
// executable), warms each workload up until every session, pool and table
// has reached its steady size, and then asserts how many heap allocations a
// call costs on average:
//
//  * the paper's L_RPC-VIP stack driven by RpcClient/RpcServer, closed loop,
//    with 0 B, 1 KB, 4 KB and 16 KB requests (1 to 16 fragments);
//  * a routed VPOOL pool of four replicas fed by Poisson OpenLoopGen
//    generators through ClusterClient, with every call tagged and checked by
//    the at-most-once oracle (the datacenter sat-knee shape).
//
// The L_RPC-VIP shape also holds a copy budget: the bytes the message tool
// copies and the header arenas it clones per call (Message::WorkCounters).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/cluster/arrivals.h"
#include "src/cluster/client.h"
#include "src/cluster/vpool.h"
#include "src/proto/topology.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace xk {
namespace {

constexpr uint16_t kCommand = 1;

// Heap allocations made while `fn` runs.
template <typename F>
uint64_t AllocationsDuring(F&& fn) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, CountingOperatorNewSeesHeapTraffic) {
  const uint64_t n = AllocationsDuring([] {
    auto p = std::make_unique<std::vector<int>>(100);
    EXPECT_EQ(p->size(), 100u);
  });
  EXPECT_EQ(n, 2u);  // the vector object and its buffer
}

// --- L_RPC-VIP, RpcClient/RpcServer ----------------------------------------

struct PaperRpc {
  std::unique_ptr<Internet> net = Internet::TwoHosts();
  HostStack& ch = net->host("client");
  HostStack& sh = net->host("server");
  RpcClient* client = nullptr;
  uint64_t completed = 0;
  uint64_t failed = 0;

  PaperRpc() {
    const RpcStack cstack = BuildLRpc(ch);
    const RpcStack sstack = BuildLRpc(sh);
    sh.kernel->RunTask(net->events().now(), [&] {
      auto& server = sh.kernel->Emplace<RpcServer>(*sh.kernel, sstack.top);
      (void)server.Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
    ch.kernel->RunTask(net->events().now(), [&] {
      client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, cstack.top);
    });
  }

  // One closed-loop call of `bytes`, run to quiescence.
  void Call(size_t bytes) {
    const IpAddr server_ip = sh.kernel->ip_addr();
    ch.kernel->RunTask(net->events().now(), [&] {
      client->Call(server_ip, kCommand, Message(bytes), [this](Result<Message> r) {
        ++(r.ok() && r->length() == 0 ? completed : failed);
      });
    });
    net->RunAll();
  }
};

class PaperRpcBudget : public ::testing::TestWithParam<size_t> {};

TEST_P(PaperRpcBudget, SteadyStateCallsStayUnderOneAllocation) {
  const size_t bytes = GetParam();
  PaperRpc rpc;
  constexpr int kWarm = 64;
  constexpr int kMeasured = 200;
  for (int i = 0; i < kWarm; ++i) {
    rpc.Call(bytes);
  }
  const uint64_t allocs = AllocationsDuring([&] {
    for (int i = 0; i < kMeasured; ++i) {
      rpc.Call(bytes);
    }
  });
  EXPECT_EQ(rpc.completed, static_cast<uint64_t>(kWarm + kMeasured));
  EXPECT_EQ(rpc.failed, 0u);
  const double per_call = static_cast<double>(allocs) / kMeasured;
  RecordProperty("allocs_per_call", std::to_string(per_call));
  EXPECT_LE(per_call, 1.0) << allocs << " allocations over " << kMeasured << " calls of "
                           << bytes << " B";
}

// Host bytes the message tool copies per call, and header-arena clones
// (Message::WorkCounters), at each request size. A frame carries the
// sender's Message and a header push extends a shared arena in place, so no
// payload byte is copied on the way through ETH; the budgets are exactly
// what the steady state does, so a copy creeping back in fails here.
struct CopyBudget {
  size_t request;
  uint64_t bytes_per_call;
  uint64_t arena_clones_per_call;
};
constexpr CopyBudget kCopyBudgets[] = {
    {0, 0, 0},
    {1024, 0, 0},
    {4096, 22, 0},  // the CHANNEL and SELECT headers, sliced into fragment 0
    {16384, 22, 0},
};

TEST_P(PaperRpcBudget, SteadyStateCallsStayUnderCopyBudget) {
  const size_t bytes = GetParam();
  const CopyBudget* budget = nullptr;
  for (const CopyBudget& b : kCopyBudgets) {
    if (b.request == bytes) {
      budget = &b;
    }
  }
  ASSERT_NE(budget, nullptr);
  PaperRpc rpc;
  constexpr int kWarm = 64;
  constexpr int kMeasured = 200;
  for (int i = 0; i < kWarm; ++i) {
    rpc.Call(bytes);
  }
  const Message::WorkCounters before = Message::work_counters();
  for (int i = 0; i < kMeasured; ++i) {
    rpc.Call(bytes);
  }
  const Message::WorkCounters& after = Message::work_counters();
  EXPECT_EQ(rpc.failed, 0u);
  const uint64_t copied = after.bytes_copied - before.bytes_copied;
  const uint64_t clones = after.arena_clones - before.arena_clones;
  RecordProperty("bytes_copied_per_call", std::to_string(static_cast<double>(copied) / kMeasured));
  RecordProperty("arena_clones_per_call", std::to_string(static_cast<double>(clones) / kMeasured));
  EXPECT_LE(copied, budget->bytes_per_call * kMeasured) << bytes << " B calls";
  EXPECT_LE(clones, budget->arena_clones_per_call * kMeasured) << bytes << " B calls";
}

INSTANTIATE_TEST_SUITE_P(RequestSizes, PaperRpcBudget,
                         ::testing::Values(size_t{0}, size_t{1024}, size_t{4096},
                                           size_t{16384}),
                         [](const ::testing::TestParamInfo<size_t>& param) {
                           return std::to_string(param.param) + "B";
                         });

// --- VPOOL + ClusterClient + OpenLoopGen + oracle ---------------------------

// The datacenter sat-knee shape: two client segments of two clients behind a
// core router, four round-robin replicas, Poisson arrivals at 120 calls/s per
// client (about 75% of the knee, so queues stay bounded and nothing fails).
struct SatKnee {
  static constexpr int kClientSegments = 2;
  static constexpr int kClientsPerSegment = 2;
  static constexpr int kReplicas = 4;

  std::unique_ptr<Internet> net = std::make_unique<Internet>(HostEnv::kXKernel, 7);
  AmoOracle oracle;
  std::vector<std::unique_ptr<OpenLoopGen>> gens;

  explicit SatKnee(SimTime horizon) {
    const IpAddr service(10, 99, 0, 1);
    WireModel wire;
    wire.propagation = Usec(200);
    const int server_seg = net->AddSegment(wire);
    std::vector<std::pair<int, IpAddr>> attachments = {{server_seg, IpAddr(10, 0, 0, 254)}};
    std::vector<int> client_segs;
    for (int i = 0; i < kClientSegments; ++i) {
      client_segs.push_back(net->AddSegment(wire));
      attachments.emplace_back(client_segs.back(),
                               IpAddr(10, 0, static_cast<uint8_t>(i + 1), 254));
    }
    net->AddRouter("core", attachments);
    std::vector<IpAddr> replica_ips;
    std::vector<HostStack*> replicas;
    for (int r = 0; r < kReplicas; ++r) {
      const std::string name = "s" + std::to_string(r);
      const IpAddr ip(10, 0, 0, static_cast<uint8_t>(r + 1));
      replicas.push_back(&net->AddHost(name, server_seg, ip));
      net->SetDefaultGateway(name, IpAddr(10, 0, 0, 254));
      replica_ips.push_back(ip);
    }
    std::vector<HostStack*> clients;
    for (int i = 0; i < kClientSegments; ++i) {
      const auto octet = static_cast<uint8_t>(i + 1);
      for (int j = 0; j < kClientsPerSegment; ++j) {
        const std::string name = "c" + std::to_string(i) + "_" + std::to_string(j);
        clients.push_back(&net->AddHost(name, client_segs[static_cast<size_t>(i)],
                                        IpAddr(10, 0, octet, static_cast<uint8_t>(j + 1))));
        net->SetDefaultGateway(name, IpAddr(10, 0, octet, 254));
      }
    }
    net->WarmArp();
    for (HostStack* h : replicas) {
      const RpcStack stack = BuildLRpc(*h);
      h->kernel->RunTask(net->events().now(), [&] {
        auto& server = h->kernel->Emplace<RpcServer>(*h->kernel, stack.top);
        (void)server.Export(kCommand, oracle.WrapEcho(h->kernel));
      });
    }
    for (size_t idx = 0; idx < clients.size(); ++idx) {
      Kernel* k = clients[idx]->kernel;
      const RpcStack stack = BuildLRpc(*clients[idx]);
      ClusterClient* cc = nullptr;
      k->RunTask(net->events().now(), [&] {
        auto& vpool = k->Emplace<VpoolProtocol>(*k, stack.top);
        vpool.BindService(service, replica_ips, VpoolPolicy::kRoundRobin);
        cc = &k->Emplace<ClusterClient>(*k, &vpool);
      });
      ArrivalSpec arrivals;
      arrivals.rate_cps = 120;
      arrivals.horizon = horizon;
      arrivals.seed = 1000003 + idx;
      gens.push_back(std::make_unique<OpenLoopGen>(*k, *cc, oracle, arrivals, service, kCommand,
                                                   64, (idx + 1) << 32));
      gens.back()->Start();
    }
  }

  uint64_t issued() const {
    uint64_t n = 0;
    for (const auto& g : gens) {
      n += g->issued();
    }
    return n;
  }
};

TEST(AllocBudget, OpenLoopClusterCallsStayUnderOneAllocation) {
  SatKnee knee(Sec(12));
  knee.net->events().RunUntil(Sec(2));  // sessions open, pools and tables reach size
  const uint64_t issued_before = knee.issued();
  const uint64_t allocs = AllocationsDuring([&] { knee.net->events().RunUntil(Sec(10)); });
  const uint64_t calls = knee.issued() - issued_before;
  ASSERT_GT(calls, 3000u);
  knee.net->RunAll();
  const AmoOracle::Report rep = knee.oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.completed, rep.issued);
  const double per_call = static_cast<double>(allocs) / static_cast<double>(calls);
  RecordProperty("allocs_per_call", std::to_string(per_call));
  EXPECT_LE(per_call, 1.0) << allocs << " allocations over " << calls << " calls";
}

}  // namespace
}  // namespace xk
