// Tests for CHANNEL (at-most-once request/reply) and SELECT (channel pool,
// command mapping), plus the forwarding selector and RDP.

#include "src/rpc/channel.h"

#include <gtest/gtest.h>

#include "src/rpc/rdp.h"
#include "src/rpc/select.h"
#include "src/rpc/select_fwd.h"
#include "tests/rpc_util.h"

namespace xk {
namespace {

RpcFixture::Builder LayeredVip() {
  return [](HostStack& h) { return BuildLRpc(h, Delivery::kVip); };
}

// --- CHANNEL semantics (via the full layered stack) ---------------------------

struct ChannelFixture : ::testing::Test {
  void SetUp() override { fix.Build(LayeredVip()); }
  RpcFixture fix;
};

TEST_F(ChannelFixture, NullCallRoundTrips) {
  Result<Message> r = fix.CallSync(7, Message());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->length(), 0u);
  EXPECT_EQ(fix.cstack.channel->stats().calls_sent, 1u);
  EXPECT_EQ(fix.sstack.channel->stats().requests_executed, 1u);
}

TEST_F(ChannelFixture, PayloadEchoes) {
  Result<Message> r = fix.CallSync(7, Message::FromBytes(PatternBytes(300, 1)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(300, 1));
}

TEST_F(ChannelFixture, LargeArgsAndResultsFragment) {
  Result<Message> r = fix.CallSync(7, Message::FromBytes(PatternBytes(16384, 2)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Flatten(), PatternBytes(16384, 2));
  EXPECT_GE(fix.cstack.fragment->stats().fragments_sent, 16u);
  EXPECT_GE(fix.sstack.fragment->stats().fragments_sent, 16u);  // the echo back
}

TEST_F(ChannelFixture, LostRequestRetransmitted) {
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 0 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  Result<Message> r = fix.CallSync(7, Message::FromBytes(PatternBytes(10)));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(fix.cstack.channel->stats().retransmissions, 1u);
}

TEST_F(ChannelFixture, LostReplyNotReExecuted) {
  // The reply is dropped; the client retransmits; the server answers from its
  // SAVED reply without re-executing -- at-most-once.
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  Result<Message> r = fix.CallSync(7, Message::FromBytes(PatternBytes(10)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fix.sstack.channel->stats().requests_executed, 1u);
  EXPECT_EQ(fix.server->requests_served(), 1u);  // the handler ran ONCE
  EXPECT_GE(fix.sstack.channel->stats().duplicates_suppressed, 1u);
  EXPECT_GE(fix.sstack.channel->stats().replies_resent, 1u);
}

TEST_F(ChannelFixture, DuplicatedRequestNotReExecuted) {
  fix.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return index == 0 ? LinkFault::kDuplicate : LinkFault::kDeliver;
  });
  Result<Message> r = fix.CallSync(7, Message::FromBytes(PatternBytes(10)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fix.server->requests_served(), 1u);
  EXPECT_GE(fix.sstack.channel->stats().duplicates_suppressed, 1u);
}

TEST_F(ChannelFixture, SlowServerElicitsExplicitAck) {
  // The server takes longer than the retransmit timeout: the retransmission
  // (with PLEASE_ACK) gets an explicit ack, the client keeps waiting, and the
  // call completes without re-execution.
  RunIn(*fix.sh->kernel, [&] { fix.server->set_service_delay(Msec(180)); });
  Result<Message> r = fix.CallSync(7, Message::FromBytes(PatternBytes(10)));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(fix.sstack.channel->stats().explicit_acks_sent, 1u);
  EXPECT_GE(fix.cstack.channel->stats().explicit_acks_received, 1u);
  EXPECT_EQ(fix.server->requests_served(), 1u);
}

TEST_F(ChannelFixture, DeadServerFailsAfterRetries) {
  fix.net->segment(0).set_drop_rate(1.0);
  Result<Message> r = fix.CallSync(7, Message());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(fix.cstack.channel->stats().call_failures, 1u);
  EXPECT_EQ(fix.cstack.channel->stats().retransmissions,
            static_cast<uint64_t>(ChannelProtocol::kRetryLimit));
  // The channel was released: a later call (with the network healed) works.
  fix.net->segment(0).set_drop_rate(0.0);
  Result<Message> r2 = fix.CallSync(7, Message());
  EXPECT_TRUE(r2.ok());
}

TEST_F(ChannelFixture, ImplicitAckDiscardsSavedReply) {
  ASSERT_TRUE(fix.CallSync(7, Message()).ok());
  ASSERT_TRUE(fix.CallSync(7, Message()).ok());
  // Two calls on (potentially) the same channel: the second request
  // implicitly acknowledged the first reply. No explicit acks were needed.
  EXPECT_EQ(fix.sstack.channel->stats().explicit_acks_sent, 0u);
  EXPECT_EQ(fix.cstack.channel->stats().retransmissions, 0u);
}

TEST_F(ChannelFixture, ClientCrashRestartResetsServerChannelState) {
  ASSERT_TRUE(fix.CallSync(7, Message()).ok());
  // A real crash/restart cycle: the client loses its protocol graph, comes
  // back with a new boot id, and its sequence numbers restart from scratch.
  fix.net->CrashHost("client");
  EXPECT_FALSE(fix.ch->kernel->is_up());
  fix.net->RestartHost("client");
  EXPECT_TRUE(fix.ch->kernel->is_up());
  ASSERT_TRUE(fix.CallSync(7, Message()).ok());
  EXPECT_GE(fix.sstack.channel->stats().boot_resets, 1u);
}

// --- SELECT -------------------------------------------------------------------

struct SelectFixture : ::testing::Test {
  void SetUp() override { fix.Build(LayeredVip(), /*export_echo=*/false); }
  RpcFixture fix;
};

TEST_F(SelectFixture, CommandsRouteToDistinctHandlers) {
  RunIn(*fix.sh->kernel, [&] {
    EXPECT_TRUE(fix.server
                    ->Export(1, [](uint16_t, Message&) {
                      return Message::FromBytes(PatternBytes(4, 1));
                    })
                    .ok());
    EXPECT_TRUE(fix.server
                    ->Export(2, [](uint16_t, Message&) {
                      return Message::FromBytes(PatternBytes(4, 2));
                    })
                    .ok());
  });
  Result<Message> r1 = fix.CallSync(1, Message());
  Result<Message> r2 = fix.CallSync(2, Message());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->Flatten(), PatternBytes(4, 1));
  EXPECT_EQ(r2->Flatten(), PatternBytes(4, 2));
}

TEST_F(SelectFixture, UnknownCommandFails) {
  RunIn(*fix.sh->kernel, [&] {
    EXPECT_TRUE(fix.server->Export(1, [](uint16_t, Message& m) { return m; }).ok());
  });
  Result<Message> r = fix.CallSync(99, Message());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(fix.sstack.select->stats().no_such_command, 1u);
}

TEST_F(SelectFixture, ChannelPoolLimitsConcurrency) {
  // Issue more concurrent calls than channels; all must complete, and some
  // must have blocked waiting for a free channel.
  RunIn(*fix.sh->kernel, [&] {
    EXPECT_TRUE(fix.server->Export(RpcServer::kAny, [](uint16_t, Message& m) { return m; }).ok());
    fix.server->set_service_delay(Msec(5));  // keep channels busy a while
  });
  const int kCalls = SelectProtocol::kNumChannels + 4;
  int completed = 0;
  RunIn(*fix.ch->kernel, [&] {
    for (int i = 0; i < kCalls; ++i) {
      fix.client->Call(fix.server_addr(), 7, Message::FromBytes(PatternBytes(8)),
                       [&](Result<Message> r) {
                         EXPECT_TRUE(r.ok());
                         ++completed;
                       });
    }
  });
  fix.net->RunAll();
  EXPECT_EQ(completed, kCalls);
  EXPECT_GE(fix.cstack.select->stats().blocked_on_channel, 4u);
  EXPECT_EQ(fix.cstack.select->free_channels(fix.server_addr()), SelectProtocol::kNumChannels);
}

TEST_F(SelectFixture, SessionsAreCachedAcrossCalls) {
  RunIn(*fix.sh->kernel, [&] {
    EXPECT_TRUE(fix.server->Export(RpcServer::kAny, [](uint16_t, Message& m) { return m; }).ok());
  });
  ASSERT_TRUE(fix.CallSync(7, Message()).ok());
  const SimTime busy_after_first = fix.ch->kernel->cpu().total_busy();
  ASSERT_TRUE(fix.CallSync(7, Message()).ok());
  const SimTime second_call_cost = fix.ch->kernel->cpu().total_busy() - busy_after_first;
  ASSERT_TRUE(fix.CallSync(7, Message()).ok());
  const SimTime third_call_cost =
      fix.ch->kernel->cpu().total_busy() - busy_after_first - second_call_cost;
  // Steady state: identical cost, no session creation.
  EXPECT_EQ(second_call_cost, third_call_cost);
}

// --- SELECT_FWD ----------------------------------------------------------------

TEST(SelectFwdTest, CallIsForwardedTransparently) {
  // Three hosts: client calls "frontend"; command 5 is forwarded to "backend".
  auto net = std::make_unique<Internet>();
  const int seg = net->AddSegment();
  net->AddHost("client", seg, IpAddr(10, 0, 1, 1));
  net->AddHost("server", seg, IpAddr(10, 0, 1, 2));    // frontend
  net->AddHost("backend", seg, IpAddr(10, 0, 1, 3));
  net->WarmArp();
  auto& ch = net->host("client");
  auto& fh = net->host("server");
  auto& bh = net->host("backend");
  RpcStack cs = BuildLRpcForwarding(ch);
  RpcStack fs = BuildLRpcForwarding(fh);
  RpcStack bs = BuildLRpcForwarding(bh);

  RpcClient* client = nullptr;
  RunIn(*ch.kernel, [&] { client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, cs.top); });
  RunIn(*fh.kernel, [&] {
    auto& server = fh.kernel->Emplace<RpcServer>(*fh.kernel, fs.top);
    EXPECT_TRUE(server.Export(RpcServer::kAny, [](uint16_t, Message&) {
      return Message::FromBytes(PatternBytes(4, 0xF0));  // frontend's answer
    }).ok());
    static_cast<SelectFwdProtocol*>(fs.top)->AddForwardingRule(5, IpAddr(10, 0, 1, 3));
  });
  RunIn(*bh.kernel, [&] {
    auto& server = bh.kernel->Emplace<RpcServer>(*bh.kernel, bs.top);
    EXPECT_TRUE(server.Export(RpcServer::kAny, [](uint16_t, Message&) {
      return Message::FromBytes(PatternBytes(4, 0xB0));  // backend's answer
    }).ok());
  });

  Result<Message> forwarded = ErrStatus(StatusCode::kError);
  Result<Message> direct = ErrStatus(StatusCode::kError);
  RunIn(*ch.kernel, [&] {
    client->Call(IpAddr(10, 0, 1, 2), 5, Message(), [&](Result<Message> r) { forwarded = r; });
    client->Call(IpAddr(10, 0, 1, 2), 6, Message(), [&](Result<Message> r) { direct = r; });
  });
  net->RunAll();
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded->Flatten(), PatternBytes(4, 0xB0));  // served by backend
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->Flatten(), PatternBytes(4, 0xF0));  // served by frontend
  auto* ffwd = static_cast<SelectFwdProtocol*>(fs.top);
  EXPECT_EQ(ffwd->forwards_sent(), 1u);
  auto* cfwd = static_cast<SelectFwdProtocol*>(cs.top);
  EXPECT_EQ(cfwd->forwards_followed(), 1u);
}

// --- RDP -----------------------------------------------------------------------

TEST(RdpTest, ReliableDatagramsDeliverExactlyOnceUnderLoss) {
  auto net = Internet::TwoHosts();
  auto& ch = net->host("client");
  auto& sh = net->host("server");
  RpcStack cs = BuildPartial(ch, 2);  // CHANNEL-FRAGMENT-VIP
  RpcStack ss = BuildPartial(sh, 2);
  RdpProtocol* crdp = nullptr;
  RdpProtocol* srdp = nullptr;
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
  RunIn(*ch.kernel, [&] {
    crdp = &ch.kernel->Emplace<RdpProtocol>(*ch.kernel, cs.channel);
    ca = &ch.kernel->Emplace<TestAnchor>(*ch.kernel);
  });
  RunIn(*sh.kernel, [&] {
    srdp = &sh.kernel->Emplace<RdpProtocol>(*sh.kernel, ss.channel);
    sa = &sh.kernel->Emplace<TestAnchor>(*sh.kernel);
    ParticipantSet enable;
    EXPECT_TRUE(srdp->OpenEnable(*sa, enable).ok());
  });
  // Drop some frames; CHANNEL below recovers; each datagram arrives once.
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index) {
    return (index % 5 == 1) ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  SessionRef sess;
  RunIn(*ch.kernel, [&] {
    ParticipantSet parts;
    parts.peer.host = sh.kernel->ip_addr();
    Result<SessionRef> r = crdp->Open(*ca, parts);
    ASSERT_TRUE(r.ok());
    sess = *r;
    for (int i = 0; i < 5; ++i) {
      Message msg = Message::FromBytes(PatternBytes(200, static_cast<uint8_t>(i)));
      EXPECT_TRUE(sess->Push(msg).ok());
    }
  });
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sa->received[i].size(), 200u);
  }
  EXPECT_EQ(srdp->stats().datagrams_delivered, 5u);  // exactly once each
}

}  // namespace
}  // namespace xk
