// Batched same-timestamp frame delivery (EthernetSegment::
// set_batched_delivery) must be invisible to the simulation: a randomized
// shared-bus workload run with and without it produces byte-identical
// traces, captures, counters and results.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/app/workload.h"
#include "tests/rpc_util.h"

namespace xk {
namespace {

// One shared-bus scenario with every workload knob drawn from a seeded RNG.
// Run once with batched delivery (the default) and once with it disabled;
// every observable artifact must be byte-identical. A raw-ETH broadcast
// burst rides along with the RPC traffic: each broadcast lands on every
// other station at the same instant -- the multi-receiver case batching
// folds into one heap event -- while the RPC unicasts exercise the
// singleton-batch path. (ARP must be warm: the synchronous open path the
// RPC stack uses reports UNREACHABLE on a cold cache rather than resolving.)
struct BatchDiffArtifacts {
  std::string trace_jsonl;
  std::string pcap_jsonl;
  std::string counters_json;
  uint64_t events_fired = 0;
  SimTime sum_done_at = 0;
  int completed = 0;
  int failed = 0;
};

BatchDiffArtifacts RunBatchDiffScenario(uint64_t seed, bool batched) {
  std::mt19937_64 rng(seed);
  TraceSink sink;
  PacketCapture capture;
  TraceSink::set_thread_default(&sink);
  PacketCapture::set_thread_default(&capture);

  BatchDiffArtifacts out;
  {
    auto net = std::make_unique<Internet>(HostEnv::kXKernel, 1);
    WireModel wire;
    wire.propagation = Usec(100 + static_cast<SimTime>(rng() % 1500));
    const int seg = net->AddSegment(wire);
    const int pairs = 2 + static_cast<int>(rng() % 3);  // 4..8 hosts on one bus
    struct Pair {
      HostStack* ch = nullptr;
      HostStack* sh = nullptr;
      RpcStack cstack, sstack;
      RpcClient* client = nullptr;
      RpcServer* server = nullptr;
    };
    std::vector<Pair> ps(static_cast<size_t>(pairs));
    for (int p = 0; p < pairs; ++p) {
      ps[p].ch = &net->AddHost("c" + std::to_string(p), seg,
                               IpAddr(10, 0, 1, static_cast<uint8_t>(2 * p + 1)));
      ps[p].sh = &net->AddHost("s" + std::to_string(p), seg,
                               IpAddr(10, 0, 1, static_cast<uint8_t>(2 * p + 2)));
    }
    net->segment(seg).set_batched_delivery(batched);
    net->WarmArp();
    const double drop = static_cast<double>(rng() % 8) / 100.0;
    if (drop > 0) {
      net->segment(seg).set_drop_rate(drop);
    }
    std::vector<Kernel*> clients;
    std::vector<CallFn> calls;
    for (Pair& pr : ps) {
      pr.cstack = BuildLRpc(*pr.ch, Delivery::kVip);
      pr.sstack = BuildLRpc(*pr.sh, Delivery::kVip);
      RunIn(*pr.ch->kernel, [&] {
        pr.client = &pr.ch->kernel->Emplace<RpcClient>(*pr.ch->kernel, pr.cstack.top);
      });
      RunIn(*pr.sh->kernel, [&] {
        pr.server = &pr.sh->kernel->Emplace<RpcServer>(*pr.sh->kernel, pr.sstack.top);
        (void)pr.server->Export(RpcServer::kAny,
                                [](uint16_t, Message& request) { return request; });
      });
      clients.push_back(pr.ch->kernel);
      const IpAddr server_ip = pr.sh->kernel->ip_addr();
      RpcClient* client = pr.client;
      calls.push_back(
          [client, server_ip](Message args, std::function<void(Result<Message>)> done) {
            client->Call(server_ip, 1, std::move(args), std::move(done));
          });
    }
    // Broadcast burst on a private ETH type: every station but the sender
    // receives each frame at the same arrival time and echoes it back,
    // contending on the bus with the RPC traffic. With >= 3 receivers per
    // frame, multi-member batches form by construction.
    constexpr EthType kBurstType = 0x3901;
    for (Pair& pr : ps) {
      for (HostStack* h : {pr.ch, pr.sh}) {
        if (h == ps[0].ch) {
          continue;
        }
        h->kernel->RunTask(net->events().now(), [&] {
          auto& srv = h->kernel->Emplace<EchoAnchor>(*h->kernel, /*server_role=*/true);
          srv.set_app_cost(0);
          ParticipantSet enable;
          enable.local.eth_type = kBurstType;
          (void)h->eth->OpenEnable(srv, enable);
        });
      }
    }
    HostStack* burst_host = ps[0].ch;
    hotloop_internal::Burst burst;
    burst_host->kernel->RunTask(net->events().now(), [&] {
      auto& sender =
          burst_host->kernel->Emplace<EchoAnchor>(*burst_host->kernel, /*server_role=*/false);
      sender.set_app_cost(0);
      ParticipantSet parts;
      parts.local.eth_type = kBurstType;
      parts.peer.eth = EthAddr::Broadcast();
      Result<SessionRef> r = burst_host->eth->Open(sender, parts);
      burst.kernel = burst_host->kernel;
      burst.anchor = &sender;
      burst.sess = r.ok() ? *r : nullptr;
      burst.remaining = 8 + static_cast<int>(rng() % 16);
      burst.size = 2 + static_cast<int>(rng() % 3);
      burst.bytes = static_cast<size_t>(64) << (rng() % 3);
      burst.gap = Usec(200 + static_cast<SimTime>(rng() % 800));
    });
    if (burst.sess != nullptr) {
      burst_host->kernel->RunTask(net->events().now(),
                                  [&burst] { hotloop_internal::Fire(&burst); });
    }
    const size_t bytes = static_cast<size_t>(64) << (rng() % 6);  // 64..2048
    ManyPairsResult r = RpcWorkload::MeasureManyPairs(*net, clients, calls, bytes, 3);
    out.completed = r.completed;
    out.failed = r.failed;
    out.sum_done_at = r.sum_done_at;
    out.events_fired = net->events_fired();
    out.counters_json = net->CountersJson();
  }

  TraceSink::set_thread_default(nullptr);
  PacketCapture::set_thread_default(nullptr);
  out.trace_jsonl = sink.ToJsonl();
  out.pcap_jsonl = capture.ToJsonl();
  return out;
}

TEST(BatchedDeliveryTest, RandomizedDifferentialBatchedVsUnbatched) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const BatchDiffArtifacts with = RunBatchDiffScenario(seed, /*batched=*/true);
    const BatchDiffArtifacts without = RunBatchDiffScenario(seed, /*batched=*/false);
    EXPECT_GT(with.completed, 0);
    EXPECT_EQ(with.completed, without.completed);
    EXPECT_EQ(with.failed, without.failed);
    EXPECT_EQ(with.sum_done_at, without.sum_done_at);
    EXPECT_EQ(with.events_fired, without.events_fired);
    EXPECT_EQ(with.counters_json, without.counters_json);
    EXPECT_EQ(with.trace_jsonl, without.trace_jsonl);
    EXPECT_EQ(with.pcap_jsonl, without.pcap_jsonl);
  }
}

}  // namespace
}  // namespace xk
