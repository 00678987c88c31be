// Tests for Psync (FRAGMENT reuse, context graph) and the Sun RPC
// decomposition (REQUEST_REPLY zero-or-more semantics, SUN_SELECT addressing,
// optional auth layers, mix-and-match with CHANNEL).

#include <gtest/gtest.h>

#include "src/psync/psync.h"
#include "src/rpc/sun/auth.h"
#include "src/rpc/sun/request_reply.h"
#include "src/rpc/sun/sun_select.h"
#include "tests/rpc_util.h"

namespace xk {
namespace {

// --- Psync ---------------------------------------------------------------------

struct PsyncFixture : ::testing::Test {
  void SetUp() override {
    net = std::make_unique<Internet>();
    const int seg = net->AddSegment();
    hosts[0] = &net->AddHost("a", seg, IpAddr(10, 0, 1, 1));
    hosts[1] = &net->AddHost("b", seg, IpAddr(10, 0, 1, 2));
    hosts[2] = &net->AddHost("c", seg, IpAddr(10, 0, 1, 3));
    net->WarmArp();
    for (int i = 0; i < 3; ++i) {
      HostStack* h = hosts[i];
      RunIn(*h->kernel, [&, i] {
        auto& vip = h->kernel->Emplace<VipProtocol>(*h->kernel, h->eth, h->ip, h->arp);
        auto& frag = h->kernel->Emplace<FragmentProtocol>(*h->kernel, &vip);
        psync[i] = &h->kernel->Emplace<PsyncProtocol>(*h->kernel, &frag);
        std::vector<IpAddr> others;
        for (int j = 0; j < 3; ++j) {
          if (j != i) {
            others.push_back(IpAddr(10, 0, 1, static_cast<uint8_t>(j + 1)));
          }
        }
        Result<PsyncConversation*> c = psync[i]->Join(77, others);
        ASSERT_TRUE(c.ok());
        conv[i] = *c;
      });
    }
  }

  Result<PsyncMsgId> SendFrom(int i, std::vector<uint8_t> payload) {
    Result<PsyncMsgId> id = ErrStatus(StatusCode::kError);
    RunIn(*hosts[i]->kernel, [&] { id = conv[i]->Send(Message::FromBytes(payload)); });
    net->RunAll();
    return id;
  }

  std::unique_ptr<Internet> net;
  HostStack* hosts[3] = {};
  PsyncProtocol* psync[3] = {};
  PsyncConversation* conv[3] = {};
};

TEST_F(PsyncFixture, MessageReachesAllParticipants) {
  std::vector<PsyncDelivery> got_b, got_c;
  conv[1]->set_receive_handler([&](const PsyncDelivery& d) { got_b.push_back(d); });
  conv[2]->set_receive_handler([&](const PsyncDelivery& d) { got_c.push_back(d); });
  Result<PsyncMsgId> id = SendFrom(0, PatternBytes(100, 1));
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(got_b.size(), 1u);
  ASSERT_EQ(got_c.size(), 1u);
  EXPECT_EQ(got_b[0].id, *id);
  EXPECT_EQ(got_b[0].sender, IpAddr(10, 0, 1, 1));
  EXPECT_EQ(got_b[0].payload.Flatten(), PatternBytes(100, 1));
  EXPECT_TRUE(got_b[0].context.empty());  // first message: no context
  EXPECT_EQ(psync[0]->stats().copies_sent, 2u);
}

TEST_F(PsyncFixture, ContextCapturesConversationOrder) {
  Result<PsyncMsgId> m1 = SendFrom(0, PatternBytes(10, 1));
  ASSERT_TRUE(m1.ok());
  Result<PsyncMsgId> m2 = SendFrom(1, PatternBytes(10, 2));  // b saw m1
  ASSERT_TRUE(m2.ok());
  Result<PsyncMsgId> m3 = SendFrom(2, PatternBytes(10, 3));  // c saw m1, m2
  ASSERT_TRUE(m3.ok());
  // Everyone's graph agrees on the precedence relation.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(conv[i]->Precedes(*m1, *m2)) << "host " << i;
    EXPECT_TRUE(conv[i]->Precedes(*m2, *m3)) << "host " << i;
    EXPECT_TRUE(conv[i]->Precedes(*m1, *m3)) << "host " << i;
    EXPECT_FALSE(conv[i]->Precedes(*m2, *m1)) << "host " << i;
    EXPECT_EQ(conv[i]->GraphSize(), 3u);
  }
  // m3 is the single leaf everywhere.
  EXPECT_EQ(conv[0]->Leaves(), std::vector<PsyncMsgId>{*m3});
}

TEST_F(PsyncFixture, ConcurrentMessagesAreUnordered) {
  // a and b send "simultaneously" (before seeing each other's message).
  Result<PsyncMsgId> ma = ErrStatus(StatusCode::kError);
  Result<PsyncMsgId> mb = ErrStatus(StatusCode::kError);
  RunIn(*hosts[0]->kernel, [&] { ma = conv[0]->Send(Message::FromBytes(PatternBytes(5, 1))); });
  RunIn(*hosts[1]->kernel, [&] { mb = conv[1]->Send(Message::FromBytes(PatternBytes(5, 2))); });
  net->RunAll();
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  EXPECT_FALSE(conv[2]->Precedes(*ma, *mb));
  EXPECT_FALSE(conv[2]->Precedes(*mb, *ma));
  EXPECT_EQ(conv[2]->Leaves().size(), 2u);  // both are leaves: concurrent
}

TEST_F(PsyncFixture, LargeMessageRidesFragment) {
  // 16 KB message: Psync reuses FRAGMENT's bulk transfer, which is the reason
  // the paper made FRAGMENT unreliable rather than at-most-once.
  std::vector<PsyncDelivery> got_b;
  conv[1]->set_receive_handler([&](const PsyncDelivery& d) { got_b.push_back(d); });
  Result<PsyncMsgId> id = SendFrom(0, PatternBytes(16000, 7));
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_b[0].payload.Flatten(), PatternBytes(16000, 7));
}

TEST_F(PsyncFixture, LostFragmentRecoveredTransparently) {
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 3 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  std::vector<PsyncDelivery> got_b, got_c;
  conv[1]->set_receive_handler([&](const PsyncDelivery& d) { got_b.push_back(d); });
  conv[2]->set_receive_handler([&](const PsyncDelivery& d) { got_c.push_back(d); });
  Result<PsyncMsgId> id = SendFrom(0, PatternBytes(8000, 9));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(got_b.size() + got_c.size(), 2u);
}

// --- Sun RPC -------------------------------------------------------------------

constexpr uint32_t kProg = 100003;  // NFS-ish
constexpr uint16_t kVers = 2;
constexpr uint16_t kProcRead = 6;

struct SunFixture {
  explicit SunFixture(SunPairing pairing, SunAuth auth) {
    fix.Build([=](HostStack& h) { return BuildSunRpc(h, pairing, auth); },
              /*export_echo=*/false);
    RunIn(*fix.sh->kernel, [&] {
      EXPECT_TRUE(fix.server
                      ->ExportParts(SunProgService(kProg, kVers),
                                    [](uint16_t, Message& request) { return request; })
                      .ok());
    });
  }

  Result<Message> CallSync(Message args) {
    Result<Message> result = ErrStatus(StatusCode::kError);
    bool done = false;
    RunIn(*fix.ch->kernel, [&] {
      fix.client->CallParts(SunProcAddress(fix.server_addr(), kProg, kVers, kProcRead),
                            std::move(args), [&](Result<Message> r) {
                              result = std::move(r);
                              done = true;
                            });
    });
    fix.net->RunAll();
    EXPECT_TRUE(done);
    return result;
  }

  RpcFixture fix;
};

TEST(SunRpcTest, BasicCallOverRequestReply) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kNone);
  Result<Message> r = sun.CallSync(Message::FromBytes(PatternBytes(200, 1)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(200, 1));
  EXPECT_EQ(sun.fix.cstack.reqrep->stats().calls_sent, 1u);
  EXPECT_EQ(sun.fix.sstack.reqrep->stats().requests_executed, 1u);
}

TEST(SunRpcTest, LargeArgsRideFragment) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kNone);
  Result<Message> r = sun.CallSync(Message::FromBytes(PatternBytes(8192, 2)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(8192, 2));
  EXPECT_GE(sun.fix.cstack.fragment->stats().fragments_sent, 8u);
}

TEST(SunRpcTest, UnknownProgramFails) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kNone);
  Result<Message> result = ErrStatus(StatusCode::kError);
  bool done = false;
  RunIn(*sun.fix.ch->kernel, [&] {
    sun.fix.client->CallParts(SunProcAddress(sun.fix.server_addr(), 999, 1, 1), Message(),
                              [&](Result<Message> r) {
                                result = std::move(r);
                                done = true;
                              });
  });
  sun.fix.net->RunAll();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(sun.fix.sstack.sunselect->stats().prog_unavail, 1u);
}

TEST(SunRpcTest, RequestReplyHasZeroOrMoreSemantics) {
  // A duplicated request is executed TWICE -- the defining contrast with
  // CHANNEL's at-most-once.
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kNone);
  sun.fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 0 ? LinkFault::kDuplicate : LinkFault::kDeliver;
  });
  Result<Message> r = sun.CallSync(Message::FromBytes(PatternBytes(10)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(sun.fix.sstack.reqrep->stats().requests_executed, 2u);
  EXPECT_EQ(sun.fix.server->requests_served(), 2u);
}

TEST(SunRpcTest, SwappingInChannelGivesAtMostOnce) {
  // The mix-and-match payoff: replace REQUEST_REPLY with CHANNEL and the same
  // duplicated request is executed ONCE.
  SunFixture sun(SunPairing::kChannel, SunAuth::kNone);
  sun.fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 0 ? LinkFault::kDuplicate : LinkFault::kDeliver;
  });
  Result<Message> r = sun.CallSync(Message::FromBytes(PatternBytes(10)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(sun.fix.server->requests_served(), 1u);
  EXPECT_GE(sun.fix.sstack.channel->stats().duplicates_suppressed, 1u);
}

TEST(SunRpcTest, LostRequestRetransmittedAndReExecuted) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kNone);
  sun.fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 0 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  Result<Message> r = sun.CallSync(Message());
  ASSERT_TRUE(r.ok());
  EXPECT_GE(sun.fix.cstack.reqrep->stats().retransmissions, 1u);
}

TEST(SunRpcTest, DeadServerFailsAfterRetries) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kNone);
  sun.fix.net->segment(0).set_drop_rate(1.0);
  Result<Message> r = sun.CallSync(Message());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(sun.fix.cstack.reqrep->stats().retransmissions,
            static_cast<uint64_t>(RequestReplyProtocol::kRetryLimit));
}

TEST(SunRpcTest, AuthNoneLayerPassesThrough) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kAuthNone);
  Result<Message> r = sun.CallSync(Message::FromBytes(PatternBytes(50, 3)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(50, 3));
  EXPECT_GE(sun.fix.cstack.auth->stats().attached, 1u);
  EXPECT_GE(sun.fix.sstack.auth->stats().verified, 1u);
}

TEST(SunRpcTest, AuthCredAcceptsAllowedUid) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kAuthCred);
  RunIn(*sun.fix.ch->kernel, [&] {
    static_cast<AuthCredProtocol*>(sun.fix.cstack.auth)->SetCredentials(1001, 100);
  });
  RunIn(*sun.fix.sh->kernel, [&] {
    static_cast<AuthCredProtocol*>(sun.fix.sstack.auth)->AllowUid(1001);
  });
  Result<Message> r = sun.CallSync(Message::FromBytes(PatternBytes(20, 4)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(sun.fix.sstack.auth->stats().verified, 1u);
  EXPECT_EQ(sun.fix.sstack.auth->stats().rejected, 0u);
}

TEST(SunRpcTest, AuthCredRejectsUnknownUid) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kAuthCred);
  RunIn(*sun.fix.ch->kernel, [&] {
    static_cast<AuthCredProtocol*>(sun.fix.cstack.auth)->SetCredentials(666, 666);
  });
  RunIn(*sun.fix.sh->kernel, [&] {
    static_cast<AuthCredProtocol*>(sun.fix.sstack.auth)->AllowUid(1001);
  });
  Result<Message> r = sun.CallSync(Message::FromBytes(PatternBytes(20, 5)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRejected);
  EXPECT_GE(sun.fix.sstack.auth->stats().rejected, 1u);
  EXPECT_EQ(sun.fix.server->requests_served(), 0u);  // never reached the service
}

TEST(SunRpcTest, DistinctProceduresPairIndependently) {
  SunFixture sun(SunPairing::kRequestReply, SunAuth::kNone);
  Result<Message> r1 = ErrStatus(StatusCode::kError);
  Result<Message> r2 = ErrStatus(StatusCode::kError);
  RunIn(*sun.fix.ch->kernel, [&] {
    sun.fix.client->CallParts(SunProcAddress(sun.fix.server_addr(), kProg, kVers, 1),
                              Message::FromBytes(PatternBytes(4, 1)),
                              [&](Result<Message> r) { r1 = std::move(r); });
    sun.fix.client->CallParts(SunProcAddress(sun.fix.server_addr(), kProg, kVers, 2),
                              Message::FromBytes(PatternBytes(4, 2)),
                              [&](Result<Message> r) { r2 = std::move(r); });
  });
  sun.fix.net->RunAll();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->Flatten(), PatternBytes(4, 1));
  EXPECT_EQ(r2->Flatten(), PatternBytes(4, 2));
}

}  // namespace
}  // namespace xk
