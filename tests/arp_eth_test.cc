// Tests for the Ethernet driver protocol and ARP over the simulated segment.

#include <gtest/gtest.h>

#include "src/proto/topology.h"
#include "tests/test_util.h"

namespace xk {
namespace {

constexpr EthType kTestType = 0x4242;

struct EthFixture : ::testing::Test {
  void SetUp() override {
    net = Internet::TwoHosts();
    client = &net->host("client");
    server = &net->host("server");
  }

  std::unique_ptr<Internet> net;
  HostStack* client = nullptr;
  HostStack* server = nullptr;
};

TEST_F(EthFixture, UnicastDataFlowsBetweenAnchors) {
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
  RunIn(*client->kernel, [&] { ca = &client->kernel->Emplace<TestAnchor>(*client->kernel); });
  RunIn(*server->kernel, [&] {
    sa = &server->kernel->Emplace<TestAnchor>(*server->kernel);
    ParticipantSet enable;
    enable.local.eth_type = kTestType;
    EXPECT_TRUE(server->eth->OpenEnable(*sa, enable).ok());
  });
  RunIn(*client->kernel, [&] {
    ParticipantSet parts;
    parts.local.eth_type = kTestType;
    parts.peer.eth = server->eth->addr();
    Result<SessionRef> sess = client->eth->Open(*ca, parts);
    ASSERT_TRUE(sess.ok());
    Message msg = Message::FromBytes(PatternBytes(100));
    EXPECT_TRUE((*sess)->Push(msg).ok());
  });
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(100));
  EXPECT_EQ(sa->accepted.size(), 1u);  // passive session was created
}

TEST_F(EthFixture, ReplyFlowsThroughPassivelyCreatedSession) {
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
  RunIn(*client->kernel, [&] { ca = &client->kernel->Emplace<TestAnchor>(*client->kernel); });
  RunIn(*server->kernel, [&] {
    sa = &server->kernel->Emplace<TestAnchor>(*server->kernel);
    sa->on_receive = [&](Message& msg, Session* lls) {
      Message reply = Message::FromBytes(PatternBytes(7, 9));
      (void)msg;
      ASSERT_NE(lls, nullptr);
      EXPECT_TRUE(lls->Push(reply).ok());
    };
    ParticipantSet enable;
    enable.local.eth_type = kTestType;
    EXPECT_TRUE(server->eth->OpenEnable(*sa, enable).ok());
  });
  RunIn(*client->kernel, [&] {
    ParticipantSet parts;
    parts.local.eth_type = kTestType;
    parts.peer.eth = server->eth->addr();
    Result<SessionRef> sess = client->eth->Open(*ca, parts);
    ASSERT_TRUE(sess.ok());
    Message msg = Message::FromBytes(PatternBytes(10));
    EXPECT_TRUE((*sess)->Push(msg).ok());
  });
  net->RunAll();
  ASSERT_EQ(ca->received.size(), 1u);
  EXPECT_EQ(ca->received[0], PatternBytes(7, 9));
}

TEST_F(EthFixture, OversizeMessageRejected) {
  TestAnchor* ca = nullptr;
  RunIn(*client->kernel, [&] {
    ca = &client->kernel->Emplace<TestAnchor>(*client->kernel);
    ParticipantSet parts;
    parts.local.eth_type = kTestType;
    parts.peer.eth = server->eth->addr();
    Result<SessionRef> sess = client->eth->Open(*ca, parts);
    ASSERT_TRUE(sess.ok());
    Message msg(1501);
    EXPECT_EQ((*sess)->Push(msg).code(), StatusCode::kTooBig);
    Message ok_msg(1500);
    EXPECT_TRUE((*sess)->Push(ok_msg).ok());
  });
}

TEST_F(EthFixture, UnknownTypeDropped) {
  TestAnchor* ca = nullptr;
  RunIn(*client->kernel, [&] {
    ca = &client->kernel->Emplace<TestAnchor>(*client->kernel);
    ParticipantSet parts;
    parts.local.eth_type = 0x9999;  // nothing enabled on server
    parts.peer.eth = server->eth->addr();
    Result<SessionRef> sess = client->eth->Open(*ca, parts);
    ASSERT_TRUE(sess.ok());
    Message msg(10);
    EXPECT_TRUE((*sess)->Push(msg).ok());
  });
  net->RunAll();
  EXPECT_EQ(server->eth->frames_in(), 1u);  // arrived but no binding
}

TEST_F(EthFixture, OpenReturnsCachedSession) {
  RunIn(*client->kernel, [&] {
    auto& ca = client->kernel->Emplace<TestAnchor>(*client->kernel);
    ParticipantSet parts;
    parts.local.eth_type = kTestType;
    parts.peer.eth = server->eth->addr();
    Result<SessionRef> a = client->eth->Open(ca, parts);
    Result<SessionRef> b = client->eth->Open(ca, parts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->get(), b->get());
  });
}

TEST_F(EthFixture, DuplicateEnableByOtherProtocolRejected) {
  RunIn(*server->kernel, [&] {
    auto& a = server->kernel->Emplace<TestAnchor>(*server->kernel, "a");
    auto& b = server->kernel->Emplace<TestAnchor>(*server->kernel, "b");
    ParticipantSet enable;
    enable.local.eth_type = kTestType;
    EXPECT_TRUE(server->eth->OpenEnable(a, enable).ok());
    EXPECT_TRUE(server->eth->OpenEnable(a, enable).ok());  // same hlp: idempotent
    EXPECT_EQ(server->eth->OpenEnable(b, enable).code(), StatusCode::kAlreadyExists);
    EXPECT_TRUE(server->eth->OpenDisable(a, enable).ok());
    EXPECT_TRUE(server->eth->OpenEnable(b, enable).ok());
  });
}

// --- ARP ---------------------------------------------------------------------

struct ArpFixture : ::testing::Test {
  void SetUp() override {
    // Cold caches: build the topology without WarmArp.
    net = std::make_unique<Internet>();
    const int seg = net->AddSegment();
    client = &net->AddHost("client", seg, IpAddr(10, 0, 1, 1));
    server = &net->AddHost("server", seg, IpAddr(10, 0, 1, 2));
  }

  std::unique_ptr<Internet> net;
  HostStack* client = nullptr;
  HostStack* server = nullptr;
};

TEST_F(ArpFixture, ResolveGoesToWireAndCaches) {
  Result<EthAddr> got = ErrStatus(StatusCode::kError);
  RunIn(*client->kernel, [&] {
    client->arp->Resolve(IpAddr(10, 0, 1, 2), [&](Result<EthAddr> r) { got = r; });
  });
  net->RunAll();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, server->eth->addr());
  EXPECT_EQ(client->arp->requests_sent(), 1u);
  EXPECT_EQ(server->arp->replies_sent(), 1u);
  // Cached now: no more traffic.
  EXPECT_TRUE(client->arp->Lookup(IpAddr(10, 0, 1, 2)).has_value());
  // The exchange also taught the server the client's binding (gratuitous
  // learning from the request).
  EXPECT_TRUE(server->arp->Lookup(IpAddr(10, 0, 1, 1)).has_value());
}

TEST_F(ArpFixture, ResolveUnknownHostFailsAfterRetries) {
  Result<EthAddr> got = ErrStatus(StatusCode::kOk);
  RunIn(*client->kernel, [&] {
    client->arp->Resolve(IpAddr(10, 0, 1, 99), [&](Result<EthAddr> r) { got = r; });
  });
  net->RunAll();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnreachable);
  EXPECT_EQ(client->arp->requests_sent(), ArpProtocol::kDefaultRetries);
}

TEST_F(ArpFixture, LostRequestIsRetried) {
  // Drop the first broadcast; the retry succeeds.
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 0 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  Result<EthAddr> got = ErrStatus(StatusCode::kError);
  RunIn(*client->kernel, [&] {
    client->arp->Resolve(IpAddr(10, 0, 1, 2), [&](Result<EthAddr> r) { got = r; });
  });
  net->RunAll();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(client->arp->requests_sent(), 2u);
}

TEST_F(ArpFixture, ConcurrentResolvesShareOneRequest) {
  int done = 0;
  RunIn(*client->kernel, [&] {
    for (int i = 0; i < 5; ++i) {
      client->arp->Resolve(IpAddr(10, 0, 1, 2), [&](Result<EthAddr> r) {
        EXPECT_TRUE(r.ok());
        ++done;
      });
    }
  });
  net->RunAll();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(client->arp->requests_sent(), 1u);
}

TEST_F(ArpFixture, ControlInterface) {
  RunIn(*client->kernel, [&] {
    ControlArgs args;
    args.ip = IpAddr(10, 0, 1, 2);
    EXPECT_EQ(client->arp->Control(ControlOp::kResolve, args).code(), StatusCode::kNotFound);
    EXPECT_TRUE(client->arp->Control(ControlOp::kResolveTest, args).ok());
    EXPECT_EQ(args.u64, 0u);
    args.eth = EthAddr::FromIndex(77);
    EXPECT_TRUE(client->arp->Control(ControlOp::kAddResolveEntry, args).ok());
    EXPECT_TRUE(client->arp->Control(ControlOp::kResolve, args).ok());
    EXPECT_EQ(args.eth, EthAddr::FromIndex(77));
    EXPECT_TRUE(client->arp->Control(ControlOp::kResolveTest, args).ok());
    EXPECT_EQ(args.u64, 1u);
  });
}

TEST_F(ArpFixture, ReverseLookup) {
  RunIn(*client->kernel, [&] {
    ControlArgs args;
    args.ip = IpAddr(10, 0, 1, 2);
    args.eth = EthAddr::FromIndex(55);
    (void)client->arp->Control(ControlOp::kAddResolveEntry, args);
  });
  EXPECT_EQ(client->arp->ReverseLookup(EthAddr::FromIndex(55)), IpAddr(10, 0, 1, 2));
  EXPECT_FALSE(client->arp->ReverseLookup(EthAddr::FromIndex(56)).has_value());
}

}  // namespace
}  // namespace xk
