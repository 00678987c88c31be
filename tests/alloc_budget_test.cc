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
// sums the bytes requested, which holds a demux map's memory per bucket, and
// the bytes held by live allocations, which holds a UDP session's memory
// (slab slot plus demux-map share). A third shape churns UDP sessions (open,
// idle-evict, reopen) and holds the steady cycle to no allocation at all.

#include <gtest/gtest.h>
#include <malloc.h>

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
#include "src/proto/udp.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};  // bytes requested, summed over every allocation
std::atomic<int64_t> g_held{0};    // usable bytes of the live allocations

void* Count(std::size_t n, void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (p != nullptr) {
    g_held.fetch_add(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  }
  return p;
}

void* CountedAlloc(std::size_t n) {
  if (void* p = Count(n, std::malloc(n == 0 ? 1 : n))) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = Count(n, std::aligned_alloc(align, rounded == 0 ? align : rounded))) {
    return p;
  }
  throw std::bad_alloc();
}

void CountedFree(void* p) {
  if (p != nullptr) {
    g_held.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Count(n, std::malloc(n == 0 ? 1 : n));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Count(n, std::malloc(n == 0 ? 1 : n));
}
void* operator new(std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }

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

// Growth of the heap held by live allocations while `fn` runs (usable bytes,
// so malloc's rounding counts and freed intermediate buffers do not).
template <typename F>
int64_t HeldGrowthDuring(F&& fn) {
  const int64_t before = g_held.load(std::memory_order_relaxed);
  fn();
  return g_held.load(std::memory_order_relaxed) - before;
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
// costs its key and value (8 + 8 B: a SessionRef is one pointer) plus one
// control byte; every growth rehash allocates exactly that for the new table
// and nothing else.
TEST(AllocBudget, DemuxMapBucketsCostAtMost17Bytes) {
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
  EXPECT_LE(worst, 17.0) << "bytes allocated per bucket by a growth rehash";
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
    kernels.push_back(net->AddRouter("core", attachments).kernel);
    std::vector<IpAddr> replica_ips;
    std::vector<HostStack*> replicas;
    for (int r = 0; r < kReplicas; ++r) {
      const std::string name = "s" + std::to_string(r);
      const IpAddr ip(10, 0, 0, static_cast<uint8_t>(r + 1));
      replicas.push_back(&net->AddHost(name, server_seg, ip));
      kernels.push_back(replicas.back()->kernel);
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
        kernels.push_back(clients.back()->kernel);
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

  // Every protocol's counters on every host and the router, summed.
  ProtoCounters counters() const {
    ProtoCounters sum;
    for (const Kernel* k : kernels) {
      k->ForEachProtocol([&sum](const Protocol& p) {
        sum.msgs_in += p.counters().msgs_in;
        sum.map_hits += p.counters().map_hits;
        sum.map_misses += p.counters().map_misses;
      });
    }
    return sum;
  }

  std::vector<Kernel*> kernels;  // the router, the replicas, the clients
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
// heap pushes, cancels and dead entries skimmed (EventQueue's counters),
// header arenas cloned and bytes copied (Message::WorkCounters; the router's
// two forwards of a call each clone one arena), and demux calls and charged
// map resolves summed over every protocol of every host (ProtoCounters). Each budget, in hundredths
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
  const ProtoCounters proto0 = knee.counters();
  q.RunUntil(Sec(10));
  const uint64_t calls = knee.issued() - issued_before;
  ASSERT_GT(calls, 3000u);
  const Message::WorkCounters& work = Message::work_counters();
  const ProtoCounters proto = knee.counters();
  const ClusterBudget budgets[] = {
      {"fired_per_call", 701, q.fired_total() - fired0},  // 7.00
      {"heap_pushes_per_call", 801, q.heap_pushes() - pushes0},  // 8.00
      {"cancels_per_call", 101, q.cancels() - cancels0},  // 1.00
      {"dead_skimmed_per_call", 101, q.dead_skimmed() - dead0},  // 1.00
      {"arena_clones_per_call", 201, work.arena_clones - work0.arena_clones},  // 2.00
      {"bytes_copied_per_call", 23408, work.bytes_copied - work0.bytes_copied},  // 234.08
      {"demux_calls_per_call", 1901, proto.msgs_in - proto0.msgs_in},  // 19.01
      {"map_resolves_per_call", 1802,
       proto.map_hits + proto.map_misses - proto0.map_hits - proto0.map_misses},  // 18.01
  };
  for (const ClusterBudget& b : budgets) {
    RecordProperty(b.name,
                   std::to_string(static_cast<double>(b.total) / static_cast<double>(calls)));
    EXPECT_LE(b.total * 100, b.hundredths_per_call * calls)
        << b.name << ": " << b.total << " over " << calls << " calls";
  }
}

// --- UDP session churn ------------------------------------------------------

// hostbench's session-churn shape at test size: two hosts on UDP, kSessions
// sessions per side (every (local port, peer port) pair distinct, so every
// demux key is), more than object_pool.h's kPoolCap, so no freelist can hide
// a per-session allocation. Nothing outside the active maps keeps a
// reference, so the idle sweep reclaims every session.
struct UdpChurn {
  static constexpr size_t kSessions = 4096;
  static constexpr uint16_t kServerPort = 20000;

  std::unique_ptr<Internet> net = Internet::TwoHosts();
  HostStack& ch = net->host("client");
  HostStack& sh = net->host("server");
  UdpProtocol* cudp = BuildUdp(ch);
  UdpProtocol* sudp = BuildUdp(sh);
  EchoAnchor* client = nullptr;
  EchoAnchor* server = nullptr;
  size_t refused = 0;

  UdpChurn() {
    ch.kernel->RunTask(net->events().now(), [&] {
      client = &ch.kernel->Emplace<EchoAnchor>(*ch.kernel, /*server_role=*/false);
    });
    sh.kernel->RunTask(net->events().now(), [&] {
      server = &sh.kernel->Emplace<EchoAnchor>(*sh.kernel, /*server_role=*/true);
    });
  }

  // Opens every session on both sides, dropping each returned reference.
  void Open() {
    OpenSide(ch, cudp, client, sh.kernel->ip_addr(), /*server_side=*/false);
    OpenSide(sh, sudp, server, ch.kernel->ip_addr(), /*server_side=*/true);
  }

  // Lets the idle sweep reclaim every session, then disarms it.
  void Evict() {
    SetIdle(Msec(5));
    net->RunAll();
    SetIdle(0);
  }

  uint64_t evictions() const { return cudp->idle_evictions() + sudp->idle_evictions(); }
  size_t live() const { return cudp->live_sessions() + sudp->live_sessions(); }

 private:
  void OpenSide(HostStack& h, UdpProtocol* udp, EchoAnchor* anchor, IpAddr peer,
                bool server_side) {
    h.kernel->RunTask(net->events().now(), [&] {
      for (size_t i = 0; i < kSessions; ++i) {
        const auto port = static_cast<uint16_t>(1 + i);
        ParticipantSet parts;
        parts.local.port = server_side ? kServerPort : port;
        parts.peer.host = peer;
        parts.peer.port = server_side ? port : kServerPort;
        refused += udp->Open(*anchor, parts).ok() ? 0 : 1;
      }
    });
  }

  void SetIdle(SimTime timeout) {
    ControlArgs args;
    args.u64 = static_cast<uint64_t>(timeout);
    for (auto [h, udp] : {std::pair{&ch, cudp}, std::pair{&sh, sudp}}) {
      h->kernel->RunTask(net->events().now(),
                         [&] { (void)udp->Control(ControlOp::kSetIdleTimeout, args); });
    }
  }
};

// Once a first cycle has grown the slabs and the event heap, an open ->
// evict cycle makes no allocation per session: a session is constructed in a
// recycled slab slot and counts its own references, so there is no
// shared_ptr control block to allocate per open. What is left is the demux
// maps' own resizing: a drained FlatTable compacts, and the next cycle's
// opens grow it back, about 20 rehashes per side per cycle whatever the
// session count. The budget is a hundredth of an allocation per session.
TEST(AllocBudget, SteadyStateUdpChurnAllocatesNothing) {
  UdpChurn churn;
  churn.Open();
  churn.Evict();
  const uint64_t allocs = AllocationsDuring([&] {
    churn.Open();
    churn.Evict();
  });
  EXPECT_EQ(churn.refused, 0u);
  EXPECT_EQ(churn.live(), 0u);
  EXPECT_EQ(churn.evictions(), 4 * UdpChurn::kSessions);
  const double per_session =
      static_cast<double>(allocs) / static_cast<double>(2 * UdpChurn::kSessions);
  RecordProperty("allocs_per_session", std::to_string(per_session));
  EXPECT_LE(allocs * 100, 2 * UdpChurn::kSessions)
      << allocs << " allocations over one cycle of " << 2 * UdpChurn::kSessions << " sessions";
}

// Heap held per live UDP session after the first open: its slab slot (the
// session, 104 B) and its share of the active map's buckets (17 B each; 8,192
// buckets for 4,096 bindings), with the slab's chunk list: 139.44 B when the
// test runs alone, as ctest runs it, and 138.45 B after the tests above have
// warmed the process's freelists. Measured as the growth of the usable bytes
// of live allocations, the quantity hostbench's core.bytes_per_session reads
// from malloc at 10^5 sessions per side.
TEST(AllocBudget, UdpSessionsHoldAtMost140Bytes) {
  UdpChurn churn;
  const int64_t held = HeldGrowthDuring([&] { churn.Open(); });
  ASSERT_EQ(churn.refused, 0u);
  ASSERT_EQ(churn.live(), 2 * UdpChurn::kSessions);
  const double per_session =
      static_cast<double>(held) / static_cast<double>(2 * UdpChurn::kSessions);
  RecordProperty("bytes_per_session", std::to_string(per_session));
  EXPECT_LE(per_session, 140.0) << held << " bytes held by " << 2 * UdpChurn::kSessions
                                << " sessions";
}

}  // namespace
}  // namespace xk
