// Tests for the monolithic Sprite RPC (M_RPC) across its three delivery
// configurations, covering the full Sprite algorithm: implicit acks,
// at-most-once, fragmentation with selective retransmission, boot ids.

#include "src/rpc/sprite_rpc.h"

#include <gtest/gtest.h>

#include "tests/rpc_util.h"

namespace xk {
namespace {

// M_RPC's delivery layer, an index into kSpecs. The parameter stays an enum
// because ctest's test names carry its printed value.
enum class Lower { kEthMap, kIp, kVip };
constexpr std::string_view kSpecs[] = {kMRpcEth, kMRpcIp, kMRpcVip};

class MRpcTest : public ::testing::TestWithParam<Lower> {
 protected:
  void SetUp() override { fix.Build(kSpecs[static_cast<int>(GetParam())]); }
  RpcFixture fix;
};

TEST_P(MRpcTest, NullCallRoundTrips) {
  Result<Message> r = fix.CallSync(42, Message());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->length(), 0u);
  EXPECT_EQ(fix.cstack.Get<SpriteRpcProtocol>()->stats().calls_sent, 1u);
  EXPECT_EQ(fix.sstack.Get<SpriteRpcProtocol>()->stats().requests_executed, 1u);
}

TEST_P(MRpcTest, PayloadEchoes) {
  Result<Message> r = fix.CallSync(42, Message::FromBytes(PatternBytes(777, 3)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(777, 3));
}

TEST_P(MRpcTest, SixteenKArgsFragmentInto16) {
  Result<Message> r = fix.CallSync(42, Message::FromBytes(PatternBytes(16384, 4)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(16384, 4));
  // 16 request fragments + 16 reply fragments.
  EXPECT_EQ(fix.cstack.Get<SpriteRpcProtocol>()->stats().fragments_sent, 16u);
  EXPECT_EQ(fix.sstack.Get<SpriteRpcProtocol>()->stats().fragments_sent, 16u);
}

TEST_P(MRpcTest, OversizeRejected) {
  bool done = false;
  RunIn(*fix.ch->kernel, [&] {
    fix.client->Call(fix.server_addr(), 42, Message(SpriteRpcProtocol::kMaxMessage + 1),
                     [&](Result<Message> r) {
                       EXPECT_FALSE(r.ok());
                       EXPECT_EQ(r.status().code(), StatusCode::kTooBig);
                       done = true;
                     });
  });
  fix.net->RunAll();
  EXPECT_TRUE(done);
}

TEST_P(MRpcTest, SequentialCallsReuseState) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fix.CallSync(42, Message::FromBytes(PatternBytes(64, uint8_t(i)))).ok());
  }
  EXPECT_EQ(fix.cstack.Get<SpriteRpcProtocol>()->stats().retransmissions, 0u);
  EXPECT_EQ(fix.sstack.Get<SpriteRpcProtocol>()->stats().duplicates_suppressed, 0u);
}

std::string DeliveryName(const ::testing::TestParamInfo<Lower>& param_info) {
  static const char* kNames[] = {"Eth", "Ip", "Vip"};
  return kNames[param_info.index];
}

INSTANTIATE_TEST_SUITE_P(Deliveries, MRpcTest,
                         ::testing::Values(Lower::kEthMap, Lower::kIp, Lower::kVip), DeliveryName);

// --- reliability paths (on the VIP configuration) -------------------------------

struct MRpcReliabilityTest : ::testing::Test {
  void SetUp() override { fix.Build(kMRpcVip); }
  RpcFixture fix;
};

TEST_F(MRpcReliabilityTest, LostRequestRetransmitted) {
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 0 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  ASSERT_TRUE(fix.CallSync(42, Message()).ok());
  EXPECT_GE(fix.cstack.Get<SpriteRpcProtocol>()->stats().retransmissions, 1u);
  EXPECT_EQ(fix.server->requests_served(), 1u);
}

TEST_F(MRpcReliabilityTest, LostReplyAnsweredFromSavedReply) {
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  ASSERT_TRUE(fix.CallSync(42, Message::FromBytes(PatternBytes(5))).ok());
  EXPECT_EQ(fix.server->requests_served(), 1u);  // at-most-once
  EXPECT_GE(fix.sstack.Get<SpriteRpcProtocol>()->stats().replies_resent, 1u);
}

TEST_F(MRpcReliabilityTest, LostMiddleFragmentSelectivelyResent) {
  // Drop one fragment of a 16-fragment request. The client's retransmission
  // asks for an ack; the server's partial ack (mask of received fragments)
  // triggers a selective resend of only the missing fragment.
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 7 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  Result<Message> r = fix.CallSync(42, Message::FromBytes(PatternBytes(16384, 6)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(16384, 6));
  EXPECT_EQ(fix.server->requests_served(), 1u);
  EXPECT_GE(fix.sstack.Get<SpriteRpcProtocol>()->stats().explicit_acks_sent, 1u);
  EXPECT_GE(fix.cstack.Get<SpriteRpcProtocol>()->stats().selective_resends, 1u);
  // Selective: far fewer resends than a full 16-fragment retransmission.
  EXPECT_LE(fix.cstack.Get<SpriteRpcProtocol>()->stats().selective_resends, 3u);
}

TEST_F(MRpcReliabilityTest, DuplicateRequestSuppressed) {
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 0 ? LinkFault::kDuplicate : LinkFault::kDeliver;
  });
  ASSERT_TRUE(fix.CallSync(42, Message()).ok());
  EXPECT_EQ(fix.server->requests_served(), 1u);
  EXPECT_GE(fix.sstack.Get<SpriteRpcProtocol>()->stats().duplicates_suppressed, 1u);
}

TEST_F(MRpcReliabilityTest, SlowServerElicitsExplicitAck) {
  RunIn(*fix.sh->kernel, [&] { fix.server->set_service_delay(Msec(180)); });
  ASSERT_TRUE(fix.CallSync(42, Message()).ok());
  EXPECT_GE(fix.sstack.Get<SpriteRpcProtocol>()->stats().explicit_acks_sent, 1u);
  EXPECT_EQ(fix.server->requests_served(), 1u);
}

TEST_F(MRpcReliabilityTest, DeadServerFailsAndChannelRecovers) {
  fix.net->segment(0).set_drop_rate(1.0);
  Result<Message> r = fix.CallSync(42, Message());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(fix.cstack.Get<SpriteRpcProtocol>()->stats().retransmissions,
            static_cast<uint64_t>(SpriteRpcProtocol::kRetryLimit));
  fix.net->segment(0).set_drop_rate(0.0);
  EXPECT_TRUE(fix.CallSync(42, Message()).ok());
}

TEST_F(MRpcReliabilityTest, ClientCrashRestartResetsChannels) {
  ASSERT_TRUE(fix.CallSync(42, Message()).ok());
  fix.net->CrashHost("client");
  fix.net->RestartHost("client");
  ASSERT_TRUE(fix.CallSync(42, Message()).ok());
  EXPECT_GE(fix.sstack.Get<SpriteRpcProtocol>()->stats().boot_resets, 1u);
}

TEST_F(MRpcReliabilityTest, ChannelPoolLimitsConcurrency) {
  RunIn(*fix.sh->kernel, [&] { fix.server->set_service_delay(Msec(5)); });
  const int kCalls = SpriteRpcProtocol::kNumChannels + 3;
  int completed = 0;
  RunIn(*fix.ch->kernel, [&] {
    for (int i = 0; i < kCalls; ++i) {
      fix.client->Call(fix.server_addr(), 42, Message(), [&](Result<Message> r) {
        EXPECT_TRUE(r.ok());
        ++completed;
      });
    }
  });
  fix.net->RunAll();
  EXPECT_EQ(completed, kCalls);
  EXPECT_GE(fix.cstack.Get<SpriteRpcProtocol>()->stats().blocked_on_channel, 3u);
}

TEST_F(MRpcReliabilityTest, RandomLossPropertySweep) {
  // Under moderate random loss every call still completes exactly once at
  // the server per executed transaction, and echoes are never corrupted.
  Rng rng(1234);
  int drops_left = 10;
  fix.net->segment(0).set_fault_hook([&](const EthFrame&, int, uint64_t, SimTime) {
    if (drops_left > 0 && rng.Chance(0.08)) {
      --drops_left;
      return LinkFault::kDrop;
    }
    return LinkFault::kDeliver;
  });
  for (int i = 0; i < 10; ++i) {
    auto payload = PatternBytes(rng.NextInRange(0, 8000), static_cast<uint8_t>(i));
    Result<Message> r = fix.CallSync(42, Message::FromBytes(payload));
    ASSERT_TRUE(r.ok()) << "call " << i;
    EXPECT_EQ(r->Flatten(), payload) << "call " << i;
  }
  EXPECT_EQ(fix.server->requests_served(), 10u);
}

}  // namespace
}  // namespace xk
