// Tests for the virtual protocols: VIP (Section 3.1), VIP_ADDR and VIP_SIZE
// (Section 4.3).

#include "src/proto/vip.h"

#include <gtest/gtest.h>

#include "src/app/stacks.h"
#include "src/proto/topology.h"
#include "src/proto/vip_size.h"
#include "tests/test_util.h"

namespace xk {
namespace {

constexpr IpProtoNum kTestProto = 210;

VipProtocol* AddVip(HostStack& h) { return BuildStack(h, "vip").Get<VipProtocol>(); }

struct VipFixture : ::testing::Test {
  void SetUp() override {
    net = Internet::TwoHosts();
    client = &net->host("client");
    server = &net->host("server");
    cvip = AddVip(*client);
    svip = AddVip(*server);
    RunIn(*client->kernel, [&] { ca = &client->kernel->Emplace<TestAnchor>(*client->kernel); });
    RunIn(*server->kernel, [&] {
      sa = &server->kernel->Emplace<TestAnchor>(*server->kernel);
      ParticipantSet enable;
      enable.local.ip_proto = kTestProto;
      EXPECT_TRUE(svip->OpenEnable(*sa, enable).ok());
    });
  }

  SessionRef OpenToServer(uint64_t max_send) {
    SessionRef out;
    RunIn(*client->kernel, [&] {
      ca->max_send_size = max_send;
      ParticipantSet parts;
      parts.local.ip_proto = kTestProto;
      parts.peer.host = server->kernel->ip_addr();
      Result<SessionRef> sess = cvip->Open(*ca, parts);
      ASSERT_TRUE(sess.ok());
      out = *sess;
    });
    return out;
  }

  std::unique_ptr<Internet> net;
  HostStack* client = nullptr;
  HostStack* server = nullptr;
  VipProtocol* cvip = nullptr;
  VipProtocol* svip = nullptr;
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
};

TEST_F(VipFixture, LocalSmallSenderOpensEthOnly) {
  // An RPC-like client that fragments its own messages (max 1500) talking to
  // a local host: VIP must pick the raw Ethernet, not IP.
  SessionRef sess = OpenToServer(1500);
  auto* vs = static_cast<VipSession*>(sess.get());
  EXPECT_TRUE(vs->has_eth_path());
  EXPECT_FALSE(vs->has_ip_path());

  RunIn(*client->kernel, [&] {
    Message msg = Message::FromBytes(PatternBytes(200, 1));
    EXPECT_TRUE(sess->Push(msg).ok());
  });
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(200, 1));
  // No IP datagrams were involved.
  EXPECT_EQ(client->ip->stats().datagrams_sent, 0u);
}

TEST_F(VipFixture, LocalLargeSenderOpensBothAndSplitsBySize) {
  // A UDP-like client that may send huge messages: VIP opens both sessions
  // and picks per message.
  SessionRef sess = OpenToServer(UINT64_MAX);
  auto* vs = static_cast<VipSession*>(sess.get());
  EXPECT_TRUE(vs->has_eth_path());
  EXPECT_TRUE(vs->has_ip_path());

  RunIn(*client->kernel, [&] {
    Message small = Message::FromBytes(PatternBytes(100, 1));
    EXPECT_TRUE(sess->Push(small).ok());
    Message large = Message::FromBytes(PatternBytes(4000, 2));
    EXPECT_TRUE(sess->Push(large).ok());
  });
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 2u);
  EXPECT_EQ(sa->received[0], PatternBytes(100, 1));
  EXPECT_EQ(sa->received[1], PatternBytes(4000, 2));
  // Exactly the large one went via IP.
  EXPECT_EQ(client->ip->stats().datagrams_sent, 1u);
}

TEST_F(VipFixture, RemoteHostOpensIpOnly) {
  auto rnet = Internet::TwoSegments();
  auto& rc = rnet->host("client");
  auto& rs = rnet->host("server");
  VipProtocol* rcvip = AddVip(rc);
  VipProtocol* rsvip = AddVip(rs);
  TestAnchor* rca = nullptr;
  TestAnchor* rsa = nullptr;
  RunIn(*rc.kernel, [&] { rca = &rc.kernel->Emplace<TestAnchor>(*rc.kernel); });
  RunIn(*rs.kernel, [&] {
    rsa = &rs.kernel->Emplace<TestAnchor>(*rs.kernel);
    ParticipantSet enable;
    enable.local.ip_proto = kTestProto;
    EXPECT_TRUE(rsvip->OpenEnable(*rsa, enable).ok());
  });
  SessionRef sess;
  RunIn(*rc.kernel, [&] {
    rca->max_send_size = 1500;
    ParticipantSet parts;
    parts.local.ip_proto = kTestProto;
    parts.peer.host = rs.kernel->ip_addr();
    Result<SessionRef> r = rcvip->Open(*rca, parts);
    ASSERT_TRUE(r.ok());
    sess = *r;
  });
  auto* vs = static_cast<VipSession*>(sess.get());
  EXPECT_FALSE(vs->has_eth_path());  // ARP cannot resolve an off-link host
  EXPECT_TRUE(vs->has_ip_path());
  RunIn(*rc.kernel, [&] {
    Message msg = Message::FromBytes(PatternBytes(300, 3));
    EXPECT_TRUE(sess->Push(msg).ok());
  });
  rnet->RunAll();
  ASSERT_EQ(rsa->received.size(), 1u);
  EXPECT_EQ(rsa->received[0], PatternBytes(300, 3));
}

TEST_F(VipFixture, ReplyThroughPassiveVipSession) {
  RunIn(*server->kernel, [&] {
    sa->on_receive = [&](Message&, Session* lls) {
      ASSERT_NE(lls, nullptr);
      Message reply = Message::FromBytes(PatternBytes(60, 7));
      EXPECT_TRUE(lls->Push(reply).ok());
    };
  });
  SessionRef sess = OpenToServer(1500);
  RunIn(*client->kernel, [&] {
    Message msg = Message::FromBytes(PatternBytes(10));
    EXPECT_TRUE(sess->Push(msg).ok());
  });
  net->RunAll();
  ASSERT_EQ(ca->received.size(), 1u);
  EXPECT_EQ(ca->received[0], PatternBytes(60, 7));
}

TEST_F(VipFixture, EthTypeMappingIsReserved) {
  EXPECT_EQ(VipEthTypeFor(0), kEthTypeVipBase);
  EXPECT_EQ(VipEthTypeFor(255), kEthTypeVipBase + 255);
  // The mapped range collides with nothing we use.
  EXPECT_NE(VipEthTypeFor(kTestProto), kEthTypeIp);
  EXPECT_NE(VipEthTypeFor(kTestProto), kEthTypeArp);
}

TEST_F(VipFixture, ControlReflectsPaths) {
  SessionRef both = OpenToServer(UINT64_MAX);
  RunIn(*client->kernel, [&] {
    ControlArgs args;
    EXPECT_TRUE(both->Control(ControlOp::kGetMaxPacket, args).ok());
    EXPECT_EQ(args.u64, 65515u);  // IP path present
    EXPECT_TRUE(both->Control(ControlOp::kGetOptPacket, args).ok());
    EXPECT_EQ(args.u64, 1500u);  // eth path present
    EXPECT_TRUE(both->Control(ControlOp::kGetPeerHost, args).ok());
    EXPECT_EQ(args.ip, IpAddr(10, 0, 1, 2));
  });
}

TEST_F(VipFixture, OpenAsyncColdCacheDiscoversLocality) {
  // Build a cold-cache pair with VIP on both sides.
  auto cnet = std::make_unique<Internet>();
  const int seg = cnet->AddSegment();
  auto& cc = cnet->AddHost("client", seg, IpAddr(10, 0, 1, 1));
  auto& cs = cnet->AddHost("server", seg, IpAddr(10, 0, 1, 2));
  VipProtocol* ccvip = AddVip(cc);
  VipProtocol* csvip = AddVip(cs);
  TestAnchor* cca = nullptr;
  TestAnchor* csa = nullptr;
  RunIn(*cc.kernel, [&] { cca = &cc.kernel->Emplace<TestAnchor>(*cc.kernel); });
  RunIn(*cs.kernel, [&] {
    csa = &cs.kernel->Emplace<TestAnchor>(*cs.kernel);
    ParticipantSet enable;
    enable.local.ip_proto = kTestProto;
    EXPECT_TRUE(csvip->OpenEnable(*csa, enable).ok());
  });
  SessionRef opened;
  RunIn(*cc.kernel, [&] {
    cca->max_send_size = 1500;
    ParticipantSet parts;
    parts.local.ip_proto = kTestProto;
    parts.peer.host = IpAddr(10, 0, 1, 2);
    ccvip->OpenAsync(*cca, parts, [&](Result<SessionRef> r) {
      ASSERT_TRUE(r.ok());
      opened = *r;
    });
  });
  cnet->RunAll();
  ASSERT_NE(opened, nullptr);
  auto* vs = static_cast<VipSession*>(opened.get());
  EXPECT_TRUE(vs->has_eth_path());  // ARP resolved on the wire => local
  EXPECT_FALSE(vs->has_ip_path());
}

// --- VIP_ADDR / VIP_SIZE -----------------------------------------------------

struct VipSizeFixture : ::testing::Test {
  // Stack: anchor - VIP_SIZE - { VIP_ADDR, FRAGMENT-... } -- but FRAGMENT is
  // an RPC-layer protocol built later; here we test VIP_SIZE with two plain
  // paths: VIP_ADDR as small and a second VIP (IP semantics) as stand-in big
  // path. The real Figure 3(b) stack is exercised in the RPC integration
  // tests.
  void SetUp() override {
    net = Internet::TwoHosts();
    client = &net->host("client");
    server = &net->host("server");
  }
  std::unique_ptr<Internet> net;
  HostStack* client = nullptr;
  HostStack* server = nullptr;
};

TEST_F(VipSizeFixture, VipAddrReturnsLowerSessionDirectly) {
  Protocol* va = BuildStack(*client, "vipaddr").top;
  TestAnchor* ca = nullptr;
  RunIn(*client->kernel, [&] {
    ca = &client->kernel->Emplace<TestAnchor>(*client->kernel);
    ParticipantSet parts;
    parts.local.ip_proto = kTestProto;
    parts.peer.host = server->kernel->ip_addr();
    Result<SessionRef> sess = va->Open(*ca, parts);
    ASSERT_TRUE(sess.ok());
    // Local destination: the session is an ETH session whose owner is the
    // Ethernet protocol, not VIP_ADDR -- zero overhead after open.
    EXPECT_EQ(&(*sess)->owner(), static_cast<Protocol*>(client->eth));
    EXPECT_EQ((*sess)->hlp(), static_cast<Protocol*>(ca));
  });
}

TEST_F(VipSizeFixture, VipAddrPicksIpForRemote) {
  auto rnet = Internet::TwoSegments();
  auto& rc = rnet->host("client");
  Protocol* va = BuildStack(rc, "vipaddr").top;
  RunIn(*rc.kernel, [&] {
    auto& ca = rc.kernel->Emplace<TestAnchor>(*rc.kernel);
    ParticipantSet parts;
    parts.local.ip_proto = kTestProto;
    parts.peer.host = rnet->host("server").kernel->ip_addr();
    Result<SessionRef> sess = va->Open(ca, parts);
    ASSERT_TRUE(sess.ok());
    EXPECT_EQ(&(*sess)->owner(), static_cast<Protocol*>(rc.ip));
  });
}

}  // namespace
}  // namespace xk
