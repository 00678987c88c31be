// Tests for UDP (ports, pseudo-header checksum, large datagrams over IP
// fragmentation) and ICMP echo.

#include <gtest/gtest.h>

#include "src/proto/icmp.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "tests/test_util.h"

namespace xk {
namespace {

struct UdpFixture : ::testing::Test {
  void SetUp() override {
    net = Internet::TwoHosts();
    client = &net->host("client");
    server = &net->host("server");
    RunIn(*client->kernel, [&] {
      cudp = &client->kernel->Emplace<UdpProtocol>(*client->kernel, client->ip);
      ca = &client->kernel->Emplace<TestAnchor>(*client->kernel);
    });
    RunIn(*server->kernel, [&] {
      sudp = &server->kernel->Emplace<UdpProtocol>(*server->kernel, server->ip);
      sa = &server->kernel->Emplace<TestAnchor>(*server->kernel);
      ParticipantSet enable;
      enable.local.port = 7;  // echo
      EXPECT_TRUE(sudp->OpenEnable(*sa, enable).ok());
    });
  }

  SessionRef OpenClientSession(uint16_t local_port = 1234, uint16_t peer_port = 7) {
    SessionRef out;
    RunIn(*client->kernel, [&] {
      ParticipantSet parts;
      parts.local.port = local_port;
      parts.peer.host = server->kernel->ip_addr();
      parts.peer.port = peer_port;
      Result<SessionRef> sess = cudp->Open(*ca, parts);
      ASSERT_TRUE(sess.ok());
      out = *sess;
    });
    return out;
  }

  void Send(const std::vector<uint8_t>& payload, uint16_t local_port = 1234) {
    SessionRef sess = OpenClientSession(local_port);
    RunIn(*client->kernel, [&] {
      Message msg = Message::FromBytes(payload);
      EXPECT_TRUE(sess->Push(msg).ok());
    });
  }

  std::unique_ptr<Internet> net;
  HostStack* client = nullptr;
  HostStack* server = nullptr;
  UdpProtocol* cudp = nullptr;
  UdpProtocol* sudp = nullptr;
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
};

TEST_F(UdpFixture, DatagramDelivered) {
  Send(PatternBytes(64));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(64));
}

TEST_F(UdpFixture, EchoReplyReturnsToClientPort) {
  RunIn(*server->kernel, [&] {
    sa->on_receive = [&](Message& msg, Session* lls) {
      ASSERT_NE(lls, nullptr);
      Message reply = msg;  // echo the payload back
      EXPECT_TRUE(lls->Push(reply).ok());
    };
  });
  Send(PatternBytes(48, 2));
  net->RunAll();
  ASSERT_EQ(ca->received.size(), 1u);
  EXPECT_EQ(ca->received[0], PatternBytes(48, 2));
}

// A call deadline and a wire error are host-side metadata of the sender's
// message; only CHANNEL serializes them. A message that crossed the wire
// carries the bytes and nothing else.
TEST_F(UdpFixture, ReceivedMessageCarriesWireBytesOnly) {
  SimTime server_deadline = -1;
  int server_wire_error = -1;
  std::vector<uint8_t> server_bytes;
  RunIn(*server->kernel, [&] {
    sa->on_receive = [&](Message& msg, Session* lls) {
      server_deadline = msg.deadline();
      server_wire_error = msg.wire_error();
      server_bytes = msg.Flatten();
      Message reply = msg;
      EXPECT_TRUE(lls->Push(reply).ok());
    };
  });
  SessionRef sess = OpenClientSession();
  RunIn(*client->kernel, [&] {
    Message msg = Message::FromBytes(PatternBytes(48, 3));
    msg.set_deadline(Sec(5));
    msg.set_wire_error(static_cast<uint8_t>(StatusCode::kBusy));
    EXPECT_TRUE(sess->Push(msg).ok());
  });
  net->RunAll();
  EXPECT_EQ(server_deadline, 0);
  EXPECT_EQ(server_wire_error, 0);
  EXPECT_EQ(server_bytes, PatternBytes(48, 3));
  ASSERT_EQ(ca->received.size(), 1u);
  EXPECT_EQ(ca->received[0], PatternBytes(48, 3));
}

TEST_F(UdpFixture, LargeDatagramRidesIpFragmentation) {
  Send(PatternBytes(16384, 5));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(16384, 5));
  EXPECT_GT(client->ip->stats().fragments_sent, 10u);
}

TEST_F(UdpFixture, WrongPortDropped) {
  SessionRef sess;
  RunIn(*client->kernel, [&] {
    ParticipantSet parts;
    parts.local.port = 1234;
    parts.peer.host = server->kernel->ip_addr();
    parts.peer.port = 99;  // nothing bound there
    Result<SessionRef> r = cudp->Open(*ca, parts);
    ASSERT_TRUE(r.ok());
    sess = *r;
    Message msg(10);
    EXPECT_TRUE(sess->Push(msg).ok());
  });
  net->RunAll();
  EXPECT_EQ(sa->received.size(), 0u);
}

TEST_F(UdpFixture, TwoClientsDemuxToDistinctSessions) {
  Send(PatternBytes(10, 1), 1111);
  Send(PatternBytes(10, 2), 2222);
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 2u);
  // Two passive sessions were created, one per (peer, port) pair.
  EXPECT_EQ(sa->accepted.size(), 2u);
  EXPECT_NE(sa->accepted[0].get(), sa->accepted[1].get());
}

TEST_F(UdpFixture, ChecksumCoversPayload) {
  // Send a raw UDP packet with a bad checksum via IP directly; the receiver
  // must reject it.
  RunIn(*client->kernel, [&] {
    ParticipantSet parts;
    parts.local.ip_proto = kIpProtoUdp;
    parts.peer.host = server->kernel->ip_addr();
    Result<SessionRef> ipsess = client->ip->Open(*ca, parts);
    ASSERT_TRUE(ipsess.ok());
    // UDP header: src 1234, dst 7, len 12, checksum 0xDEAD (wrong).
    std::vector<uint8_t> pkt = {0x04, 0xD2, 0x00, 0x07, 0x00, 0x0C,
                                0xDE, 0xAD, 1,    2,    3,    4};
    Message msg = Message::FromBytes(pkt);
    EXPECT_TRUE((*ipsess)->Push(msg).ok());
  });
  net->RunAll();
  EXPECT_EQ(sa->received.size(), 0u);
  EXPECT_EQ(sudp->checksum_failures(), 1u);
}

TEST_F(UdpFixture, ZeroChecksumAcceptedWhenSenderDisablesIt) {
  RunIn(*client->kernel, [&] { cudp->set_checksum_enabled(false); });
  Send(PatternBytes(20, 3));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(20, 3));
}

TEST_F(UdpFixture, SessionControlOps) {
  SessionRef sess = OpenClientSession(4321, 7);
  RunIn(*client->kernel, [&] {
    ControlArgs args;
    EXPECT_TRUE(sess->Control(ControlOp::kGetMyPort, args).ok());
    EXPECT_EQ(args.u64, 4321u);
    EXPECT_TRUE(sess->Control(ControlOp::kGetPeerPort, args).ok());
    EXPECT_EQ(args.u64, 7u);
    EXPECT_TRUE(sess->Control(ControlOp::kGetPeerHost, args).ok());
    EXPECT_EQ(args.ip, IpAddr(10, 0, 1, 2));
    EXPECT_TRUE(sess->Control(ControlOp::kGetMaxPacket, args).ok());
    EXPECT_EQ(args.u64, 65515u - 8u);
  });
}

TEST_F(UdpFixture, UdpAcrossRouter) {
  auto rnet = Internet::TwoSegments();
  auto& rclient = rnet->host("client");
  auto& rserver = rnet->host("server");
  UdpProtocol* rcudp = nullptr;
  UdpProtocol* rsudp = nullptr;
  TestAnchor* rca = nullptr;
  TestAnchor* rsa = nullptr;
  RunIn(*rclient.kernel, [&] {
    rcudp = &rclient.kernel->Emplace<UdpProtocol>(*rclient.kernel, rclient.ip);
    rca = &rclient.kernel->Emplace<TestAnchor>(*rclient.kernel);
  });
  RunIn(*rserver.kernel, [&] {
    rsudp = &rserver.kernel->Emplace<UdpProtocol>(*rserver.kernel, rserver.ip);
    rsa = &rserver.kernel->Emplace<TestAnchor>(*rserver.kernel);
    ParticipantSet enable;
    enable.local.port = 7;
    EXPECT_TRUE(rsudp->OpenEnable(*rsa, enable).ok());
  });
  RunIn(*rclient.kernel, [&] {
    ParticipantSet parts;
    parts.local.port = 5555;
    parts.peer.host = rserver.kernel->ip_addr();
    parts.peer.port = 7;
    Result<SessionRef> sess = rcudp->Open(*rca, parts);
    ASSERT_TRUE(sess.ok());
    Message msg = Message::FromBytes(PatternBytes(2000, 8));  // fragments too
    EXPECT_TRUE((*sess)->Push(msg).ok());
  });
  rnet->RunAll();
  ASSERT_EQ(rsa->received.size(), 1u);
  EXPECT_EQ(rsa->received[0], PatternBytes(2000, 8));
}

// --- ICMP --------------------------------------------------------------------

TEST(IcmpTest, PingSameSegment) {
  auto net = Internet::TwoHosts();
  auto& client = net->host("client");
  auto& server = net->host("server");
  IcmpProtocol* cicmp = nullptr;
  RunIn(*client.kernel,
        [&] { cicmp = &client.kernel->Emplace<IcmpProtocol>(*client.kernel, client.ip); });
  IcmpProtocol* sicmp = nullptr;
  RunIn(*server.kernel,
        [&] { sicmp = &server.kernel->Emplace<IcmpProtocol>(*server.kernel, server.ip); });

  Result<SimTime> rtt = ErrStatus(StatusCode::kError);
  RunIn(*client.kernel, [&] {
    cicmp->Ping(IpAddr(10, 0, 1, 2), 56, [&](Result<SimTime> r) { rtt = r; });
  });
  net->RunAll();
  ASSERT_TRUE(rtt.ok());
  EXPECT_GT(*rtt, 0);
  EXPECT_LT(*rtt, Msec(5));
  EXPECT_EQ(sicmp->echoes_answered(), 1u);
}

TEST(IcmpTest, PingAcrossRouter) {
  auto net = Internet::TwoSegments();
  auto& client = net->host("client");
  auto& server = net->host("server");
  IcmpProtocol* cicmp = nullptr;
  RunIn(*client.kernel,
        [&] { cicmp = &client.kernel->Emplace<IcmpProtocol>(*client.kernel, client.ip); });
  RunIn(*server.kernel,
        [&] { server.kernel->Emplace<IcmpProtocol>(*server.kernel, server.ip); });

  Result<SimTime> rtt = ErrStatus(StatusCode::kError);
  RunIn(*client.kernel, [&] {
    cicmp->Ping(IpAddr(10, 0, 2, 1), 56, [&](Result<SimTime> r) { rtt = r; });
  });
  net->RunAll();
  ASSERT_TRUE(rtt.ok());
}

TEST(IcmpTest, PingUnreachableTimesOut) {
  auto net = Internet::TwoHosts();
  auto& client = net->host("client");
  IcmpProtocol* cicmp = nullptr;
  RunIn(*client.kernel,
        [&] { cicmp = &client.kernel->Emplace<IcmpProtocol>(*client.kernel, client.ip); });
  // Host 10.0.1.3 has an ARP entry (warm) but no machine behind it.
  RunIn(*client.kernel, [&] {
    ControlArgs args;
    args.ip = IpAddr(10, 0, 1, 3);
    args.eth = EthAddr::FromIndex(99);
    (void)client.arp->Control(ControlOp::kAddResolveEntry, args);
  });
  Result<SimTime> rtt = OkStatus();
  RunIn(*client.kernel, [&] {
    cicmp->Ping(IpAddr(10, 0, 1, 3), 56, [&](Result<SimTime> r) { rtt = r; });
  });
  net->RunAll();
  ASSERT_FALSE(rtt.ok());
  EXPECT_EQ(rtt.status().code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace xk
