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
// Both shapes also hold a copy budget: the bytes the message tool copies and
// the header arenas it clones per call (Message::WorkCounters); and an
// event-queue budget: events fired, heap pushes, cancels and dead entries
// skimmed per call (EventQueue's counters). The counting operator new also
// sums the bytes requested, which holds a demux map's memory per bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/cluster/arrivals.h"
#include "src/cluster/client.h"
#include "src/cluster/vpool.h"
#include "src/core/map.h"
#include "src/proto/topology.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};  // bytes requested, summed over every allocation

void Count(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t n) {
  Count(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  Count(n);
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
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  Count(n);
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

// Heap bytes requested while `fn` runs.
template <typename F>
uint64_t BytesDuring(F&& fn) {
  const uint64_t before = g_bytes.load(std::memory_order_relaxed);
  fn();
  return g_bytes.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, CountingOperatorNewSeesHeapTraffic) {
  uint64_t n = 0;
  const uint64_t bytes = BytesDuring([&] {
    n = AllocationsDuring([] {
      auto p = std::make_unique<std::vector<int>>(100);
      EXPECT_EQ(p->size(), 100u);
    });
  });
  EXPECT_EQ(n, 2u);  // the vector object and its buffer
  EXPECT_EQ(bytes, sizeof(std::vector<int>) + 100 * sizeof(int));
}

// Memory per demux binding: a map keyed like UDP's active map (peer address,
// local port, remote port -> SessionRef), grown to 2^17 bindings. Each bucket
// costs its key and value (8 + 16 B) plus one control byte; every growth
// rehash allocates exactly that for the new table and nothing else.
TEST(AllocBudget, DemuxMapBucketsCostAtMost25Bytes) {
  EventQueue events;
  Kernel kernel("budget", events, HostEnv::kXKernel, IpAddr(10, 0, 1, 1), EthAddr::FromIndex(1));
  DemuxMap<std::tuple<IpAddr, uint16_t, uint16_t>> map(kernel);
  constexpr uint32_t kBindings = 1u << 17;
  int growths = 0;
  double worst = 0;
  for (uint32_t i = 0; i < kBindings; ++i) {
    const IpAddr peer(10, static_cast<uint8_t>(i >> 16), static_cast<uint8_t>(i >> 8),
                      static_cast<uint8_t>(i));
    const auto key = std::make_tuple(peer, uint16_t{1024}, uint16_t{7});
    const size_t cap_before = map.capacity();
    const uint64_t bytes = BytesDuring([&] { map.Bind(key, SessionRef{}); });
    if (map.capacity() != cap_before) {
      ++growths;
      worst = std::max(worst, static_cast<double>(bytes) / static_cast<double>(map.capacity()));
    } else {
      ASSERT_EQ(bytes, 0u) << "binding " << i;
    }
  }
  EXPECT_EQ(map.size(), kBindings);
  EXPECT_EQ(map.capacity(), size_t{1} << 18);
  EXPECT_EQ(growths, 15);  // the first 16 buckets, then 14 doublings
  RecordProperty("bytes_per_bucket", std::to_string(worst));
  EXPECT_LE(worst, 25.0) << "bytes allocated per bucket by a growth rehash";
}

TEST(AllocBudget, ZeroPayloadMessagesAllocateNothing) {
  // Every Message(n) views one shared block of zeros, so once a message of
  // the largest size has been built, building any number of them (alive at
  // once, as a burst of requests is) allocates nothing.
  (void)Message(16384);
  std::vector<Message> live;
  live.reserve(64);
  const uint64_t n = AllocationsDuring([&] {
    for (int i = 0; i < 16; ++i) {
      for (size_t len : {size_t{1}, size_t{1024}, size_t{4096}, size_t{16384}}) {
        live.emplace_back(len);
      }
    }
  });
  EXPECT_EQ(n, 0u);
  ASSERT_EQ(live.size(), 64u);
  EXPECT_EQ(live.back().Flatten(), std::vector<uint8_t>(16384, 0));
}

// --- L_RPC-VIP, RpcClient/RpcServer ----------------------------------------

// The benchmark's L_RPC-VIP instance: RpcClient against a null-reply RpcServer.
struct PaperRpc {
  RpcBench::Instance in = RpcBench::MakeInstance(kLRpcVip);
  uint64_t completed = 0;
  uint64_t failed = 0;

  // One closed-loop call of `bytes`, run to quiescence.
  void Call(size_t bytes) {
    const IpAddr server_ip = in.sh->kernel->ip_addr();
    in.ch->kernel->RunTask(in.net->events().now(), [&] {
      in.client->Call(server_ip, kCommand, Message(bytes), [this](Result<Message> r) {
        ++(r.ok() && r->length() == 0 ? completed : failed);
      });
    });
    in.net->RunAll();
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

// Event-queue work per call (EventQueue's host counters) at each request
// size. FRAGMENT's receiver pushes its reassembly gap timer back on every
// fragment; Reschedule re-keys it in place, so a push-back costs no heap
// entry, no cancel and no dead entry to skim. What is left is the events
// that fire, plus the two timers a call cancels: the receiver's gap timer on
// completion and CHANNEL's retransmit timer when the reply beats it.
struct QueueBudget {
  size_t request;
  uint64_t fired_per_call;
  uint64_t heap_pushes_per_call;
  uint64_t cancels_per_call;
  uint64_t dead_skimmed_per_call;
};
constexpr QueueBudget kQueueBudgets[] = {
    {0, 4, 5, 1, 1},  // one fragment: no gap timer
    {1024, 4, 5, 1, 1},
    {4096, 7, 9, 2, 2},
    {16384, 19, 21, 2, 2},
};

TEST_P(PaperRpcBudget, SteadyStateCallsStayUnderQueueBudget) {
  const size_t bytes = GetParam();
  const QueueBudget* budget = nullptr;
  for (const QueueBudget& b : kQueueBudgets) {
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
  const EventQueue& q = rpc.in.net->events();
  const uint64_t fired0 = q.fired_total();
  const uint64_t pushes0 = q.heap_pushes();
  const uint64_t cancels0 = q.cancels();
  const uint64_t dead0 = q.dead_skimmed();
  for (int i = 0; i < kMeasured; ++i) {
    rpc.Call(bytes);
  }
  EXPECT_EQ(rpc.failed, 0u);
  const uint64_t fired = q.fired_total() - fired0;
  const uint64_t pushes = q.heap_pushes() - pushes0;
  const uint64_t cancels = q.cancels() - cancels0;
  const uint64_t dead = q.dead_skimmed() - dead0;
  RecordProperty("fired_per_call", std::to_string(static_cast<double>(fired) / kMeasured));
  RecordProperty("heap_pushes_per_call", std::to_string(static_cast<double>(pushes) / kMeasured));
  RecordProperty("cancels_per_call", std::to_string(static_cast<double>(cancels) / kMeasured));
  RecordProperty("dead_skimmed_per_call", std::to_string(static_cast<double>(dead) / kMeasured));
  EXPECT_EQ(fired, budget->fired_per_call * kMeasured) << bytes << " B calls";
  EXPECT_LE(pushes, budget->heap_pushes_per_call * kMeasured) << bytes << " B calls";
  EXPECT_LE(cancels, budget->cancels_per_call * kMeasured) << bytes << " B calls";
  EXPECT_LE(dead, budget->dead_skimmed_per_call * kMeasured) << bytes << " B calls";
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
      const RpcStack stack = BuildStack(*h, kLRpcVip);
      h->kernel->RunTask(net->events().now(), [&] {
        auto& server = h->kernel->Emplace<RpcServer>(*h->kernel, stack.top);
        (void)server.Export(kCommand, oracle.WrapEcho(h->kernel));
      });
    }
    for (size_t idx = 0; idx < clients.size(); ++idx) {
      Kernel* k = clients[idx]->kernel;
      const RpcStack stack = BuildStack(*clients[idx], kLRpcVip);
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

// The sat-knee shape's per-call work over the same window: events fired,
// heap pushes, cancels and dead entries skimmed (EventQueue's counters), and
// header arenas cloned and bytes copied (Message::WorkCounters; the router's
// two forwards of a call each clone one arena). Each budget, in hundredths
// per call, is what the steady state does today rounded up, so a queue entry
// or a copy creeping onto the cluster path fails here. The window's edges cut
// through calls in flight, so the totals are not exact multiples of the calls.
struct ClusterBudget {
  const char* name;
  uint64_t hundredths_per_call;
  uint64_t total;
};

TEST(AllocBudget, OpenLoopClusterCallsStayUnderWorkBudget) {
  SatKnee knee(Sec(12));
  EventQueue& q = knee.net->events();
  q.RunUntil(Sec(2));
  const uint64_t issued_before = knee.issued();
  const uint64_t fired0 = q.fired_total();
  const uint64_t pushes0 = q.heap_pushes();
  const uint64_t cancels0 = q.cancels();
  const uint64_t dead0 = q.dead_skimmed();
  const Message::WorkCounters work0 = Message::work_counters();
  q.RunUntil(Sec(10));
  const uint64_t calls = knee.issued() - issued_before;
  ASSERT_GT(calls, 3000u);
  const Message::WorkCounters& work = Message::work_counters();
  const ClusterBudget budgets[] = {
      {"fired_per_call", 701, q.fired_total() - fired0},  // 7.00
      {"heap_pushes_per_call", 801, q.heap_pushes() - pushes0},  // 8.00
      {"cancels_per_call", 101, q.cancels() - cancels0},  // 1.00
      {"dead_skimmed_per_call", 101, q.dead_skimmed() - dead0},  // 1.00
      {"arena_clones_per_call", 201, work.arena_clones - work0.arena_clones},  // 2.00
      {"bytes_copied_per_call", 23408, work.bytes_copied - work0.bytes_copied},  // 234.08
  };
  for (const ClusterBudget& b : budgets) {
    RecordProperty(b.name,
                   std::to_string(static_cast<double>(b.total) / static_cast<double>(calls)));
    EXPECT_LE(b.total * 100, b.hundredths_per_call * calls)
        << b.name << ": " << b.total << " over " << calls << " calls";
  }
}

}  // namespace
}  // namespace xk
