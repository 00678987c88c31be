// Cross-module integration tests: full RPC stacks over routed topologies,
// mixed-size traffic through the dynamic (Section 4.3) configuration, the
// layered workload drivers, and Table III stack composition invariants.

#include <gtest/gtest.h>

#include "src/app/workload.h"
#include "tests/rpc_util.h"

namespace xk {
namespace {

// --- RPC across a router --------------------------------------------------------

class RoutedRpcTest : public ::testing::TestWithParam<int> {};

TEST_P(RoutedRpcTest, CallsWorkAcrossSegments) {
  static constexpr std::string_view kSpecs[] = {kMRpcVip, kLRpcVip, kLRpcVipSize};
  RpcFixture fix(Internet::TwoSegments());
  fix.Build(kSpecs[GetParam()]);
  Result<Message> small = fix.CallSync(3, Message::FromBytes(PatternBytes(64, 1)));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->Flatten(), PatternBytes(64, 1));
  Result<Message> big = fix.CallSync(3, Message::FromBytes(PatternBytes(12000, 2)));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->Flatten(), PatternBytes(12000, 2));
  // Everything went through the router: the client could not resolve the
  // server on its own wire, so VIP (or VIP_ADDR) picked IP.
  EXPECT_GT(fix.net->host("router").ip->stats().forwards, 2u);
}

std::string RoutedStackName(const ::testing::TestParamInfo<int>& param_info) {
  static const char* kNames[] = {"MRpcVip", "LRpcVip", "LRpcDynamic"};
  return kNames[param_info.param];
}

INSTANTIATE_TEST_SUITE_P(Stacks, RoutedRpcTest, ::testing::Values(0, 1, 2), RoutedStackName);

// --- Section 4.3 configuration under mixed traffic --------------------------------

struct DynamicStackTest : ::testing::Test {
  void SetUp() override { fix.Build(kLRpcVipSize); }
  RpcFixture fix;
};

TEST_F(DynamicStackTest, SmallCallsBypassFragment) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(100, uint8_t(i)))).ok());
  }
  // VIP_SIZE routed everything down the direct path: FRAGMENT idle.
  EXPECT_EQ(fix.cstack.Get<FragmentProtocol>()->stats().messages_sent, 0u);
  EXPECT_EQ(fix.sstack.Get<FragmentProtocol>()->stats().messages_sent, 0u);
}

TEST_F(DynamicStackTest, LargeCallsUseFragment) {
  Result<Message> r = fix.CallSync(1, Message::FromBytes(PatternBytes(9000, 7)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(9000, 7));
  EXPECT_GE(fix.cstack.Get<FragmentProtocol>()->stats().messages_sent, 1u);  // the request
  EXPECT_GE(fix.sstack.Get<FragmentProtocol>()->stats().messages_sent, 1u);  // the echo back
}

TEST_F(DynamicStackTest, MixedTrafficSplitsCorrectly) {
  ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(50, 1))).ok());
  ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(8000, 2))).ok());
  ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(60, 3))).ok());
  ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(16000, 4))).ok());
  // Exactly the two large requests (and their echoes) used FRAGMENT.
  EXPECT_EQ(fix.cstack.Get<FragmentProtocol>()->stats().messages_sent, 2u);
  EXPECT_EQ(fix.sstack.Get<FragmentProtocol>()->stats().messages_sent, 2u);
}

TEST_F(DynamicStackTest, RecoversFromLossOnBothPaths) {
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return (index == 0 || index == 6) ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(50, 1))).ok());
  ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(8000, 2))).ok());
}

// --- workload drivers --------------------------------------------------------------

TEST(WorkloadTest, LatencyIsSteadyStatePerCall) {
  RpcFixture fix;
  fix.Build(kMRpcVip);
  CallFn call = [&](Message args, std::function<void(Result<Message>)> done) {
    fix.client->Call(fix.server_addr(), 1, std::move(args), std::move(done));
  };
  LatencyResult a = RpcWorkload::MeasureLatency(*fix.net, *fix.ch->kernel, call, 8);
  LatencyResult b = RpcWorkload::MeasureLatency(*fix.net, *fix.ch->kernel, call, 64);
  EXPECT_EQ(a.completed, 8);
  EXPECT_EQ(b.completed, 64);
  EXPECT_EQ(a.failed, 0);
  // The 8-call average includes the cold first call; the 64-call run that
  // follows is pure steady state and must be cheaper per call.
  EXPECT_GT(a.per_call, b.per_call);
  EXPECT_GT(b.per_call, Msec(1));
  EXPECT_LT(b.per_call, Msec(3));
}

TEST(WorkloadTest, ThroughputAccountsCpuAndBytes) {
  RpcFixture fix;
  fix.Build(kLRpcVip, false);
  RunIn(*fix.sh->kernel, [&] {
    EXPECT_TRUE(
        fix.server->Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); }).ok());
  });
  CallFn call = [&](Message args, std::function<void(Result<Message>)> done) {
    fix.client->Call(fix.server_addr(), 1, std::move(args), std::move(done));
  };
  ThroughputResult t = RpcWorkload::MeasureThroughput(*fix.net, *fix.ch->kernel,
                                                      *fix.sh->kernel, call, 16 * 1024, 8);
  EXPECT_EQ(t.completed, 8);
  EXPECT_GT(t.kbytes_per_sec, 500);
  EXPECT_LT(t.kbytes_per_sec, 1200);  // can't beat the wire
  EXPECT_GT(t.client_cpu, 0);
  EXPECT_GT(t.server_cpu, 0);
}

// --- composition invariants ---------------------------------------------------------

TEST(ZeroTimeWireTest, CallsCompleteWithoutHanging) {
  // An idealized wire: no per-frame overhead, no propagation, and a per-byte
  // time that truncates to zero, so every frame arrives the instant it is
  // sent. Calls must still complete and the run must reach quiescence.
  WireModel wire;
  wire.bits_per_usec = 1e12;
  wire.per_frame_overhead = 0;
  wire.propagation = 0;
  ASSERT_EQ(wire.TransmitTime(0) + wire.propagation, 0) << "wire is not degenerate";

  auto net = std::make_unique<Internet>(HostEnv::kXKernel, 1);
  const int seg = net->AddSegment(wire);
  net->AddHost("client", seg, IpAddr(10, 0, 1, 1));
  net->AddHost("server", seg, IpAddr(10, 0, 1, 2));
  net->WarmArp();
  RpcFixture fix(std::move(net));
  fix.Build(kLRpcVip);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(600, uint8_t(i)))).ok());
  }
  EXPECT_EQ(fix.client->calls_completed(), 3u);
}

TEST(CompositionTest, SubstitutabilityAcrossDeliveries) {
  // The same M_RPC code runs over three different delivery protocols and
  // yields byte-identical results -- the uniform-interface claim.
  for (std::string_view spec : {kMRpcEth, kMRpcIp, kMRpcVip}) {
    RpcFixture fix;
    fix.Build(spec);
    Result<Message> r = fix.CallSync(9, Message::FromBytes(PatternBytes(5000, 9)));
    ASSERT_TRUE(r.ok()) << spec;
    EXPECT_EQ(r->Flatten(), PatternBytes(5000, 9)) << spec;
  }
}

TEST(CompositionTest, MultipleClientsOfFragmentCoexist) {
  // CHANNEL (via L_RPC) and a raw test client share one FRAGMENT instance,
  // demultiplexed by FRAGMENT's own protocol number field -- the reason the
  // layered headers carry one.
  RpcFixture fix;
  fix.Build(kLRpcVip);
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
  RunIn(*fix.ch->kernel, [&] { ca = &fix.ch->kernel->Emplace<TestAnchor>(*fix.ch->kernel); });
  RunIn(*fix.sh->kernel, [&] {
    sa = &fix.sh->kernel->Emplace<TestAnchor>(*fix.sh->kernel);
    ParticipantSet enable;
    enable.local.rel_proto = kRelProtoRawTest;
    EXPECT_TRUE(fix.sstack.Get<FragmentProtocol>()->OpenEnable(*sa, enable).ok());
  });
  // Raw bulk message and an RPC, interleaved over the same FRAGMENT.
  RunIn(*fix.ch->kernel, [&] {
    ParticipantSet parts;
    parts.peer.host = fix.server_addr();
    parts.local.rel_proto = kRelProtoRawTest;
    Result<SessionRef> sess = fix.cstack.Get<FragmentProtocol>()->Open(*ca, parts);
    ASSERT_TRUE(sess.ok());
    Message bulk = Message::FromBytes(PatternBytes(5000, 5));
    EXPECT_TRUE((*sess)->Push(bulk).ok());
  });
  Result<Message> rpc = fix.CallSync(2, Message::FromBytes(PatternBytes(300, 2)));
  ASSERT_TRUE(rpc.ok());
  fix.net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(5000, 5));
}

TEST(CompositionTest, ControlOpsTraverseTheWholeStack) {
  // kGetPeerHostEth asked of a CHANNEL session must travel down through
  // FRAGMENT and VIP to the Ethernet level that knows the answer.
  RpcFixture fix;
  fix.Build(kLRpcVip);
  ASSERT_TRUE(fix.CallSync(1, Message()).ok());
  RunIn(*fix.ch->kernel, [&] {
    ParticipantSet parts;
    parts.peer.host = fix.server_addr();
    parts.local.channel = 0;
    parts.local.rel_proto = kRelProtoSelect;
    Result<SessionRef> chan = fix.cstack.Get<ChannelProtocol>()->Open(*fix.client, parts);
    ASSERT_TRUE(chan.ok());
    ControlArgs args;
    EXPECT_TRUE((*chan)->Control(ControlOp::kGetPeerHostEth, args).ok());
    EXPECT_EQ(args.eth, fix.sh->eth->addr());
  });
}

}  // namespace
}  // namespace xk
