// Tests for FRAGMENT: unreliable-but-persistent bulk transfer.

#include "src/rpc/fragment.h"

#include <gtest/gtest.h>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/core/wire.h"
#include "src/proto/topology.h"
#include "tests/test_util.h"

namespace xk {
namespace {

// Fixture: FRAGMENT-VIP on both hosts, raw echo-less anchors (we drive
// FRAGMENT directly and observe deliveries with TestAnchor).
struct FragmentFixture : ::testing::Test {
  void SetUp() override {
    net = Internet::TwoHosts();
    ch = &net->host("client");
    sh = &net->host("server");
    cstack = BuildStack(*ch, "fragment/vip");
    sstack = BuildStack(*sh, "fragment/vip");
    RunIn(*ch->kernel, [&] { ca = &ch->kernel->Emplace<TestAnchor>(*ch->kernel); });
    RunIn(*sh->kernel, [&] {
      sa = &sh->kernel->Emplace<TestAnchor>(*sh->kernel);
      EXPECT_TRUE(EnableEcho(sstack, *sa).ok());
    });
  }

  SessionRef OpenToServer() {
    SessionRef out;
    RunIn(*ch->kernel, [&] {
      Result<SessionRef> sess = OpenEchoSession(cstack, *ca, sh->kernel->ip_addr());
      ASSERT_TRUE(sess.ok());
      out = *sess;
    });
    return out;
  }

  void Send(const SessionRef& sess, std::vector<uint8_t> payload) {
    RunIn(*ch->kernel, [&] {
      Message msg = Message::FromBytes(payload);
      EXPECT_TRUE(sess->Push(msg).ok());
    });
  }

  std::unique_ptr<Internet> net;
  HostStack* ch = nullptr;
  HostStack* sh = nullptr;
  RpcStack cstack, sstack;
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
};

TEST_F(FragmentFixture, SingleFragmentFastPath) {
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(512, 1));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(512, 1));
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().fragments_sent, 1u);
}

TEST_F(FragmentFixture, SixteenKMessageIsSixteenFragments) {
  // "For each 16k-byte message, FRAGMENT handles 16 messages."
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(16384, 2));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(16384, 2));
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().fragments_sent, 16u);
}

TEST_F(FragmentFixture, OversizeRejected) {
  SessionRef sess = OpenToServer();
  RunIn(*ch->kernel, [&] {
    Message msg(FragmentProtocol::kMaxMessage + 1);
    EXPECT_EQ(sess->Push(msg).code(), StatusCode::kTooBig);
  });
}

TEST_F(FragmentFixture, UnevenLastFragment) {
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(2500, 3));  // 1024 + 1024 + 452
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(2500, 3));
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().fragments_sent, 3u);
}

TEST_F(FragmentFixture, LostFragmentRecoveredByNack) {
  // Persistence: a dropped middle fragment is requested and resent; the
  // message is still delivered, with NO positive acknowledgement ever sent.
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(4096, 4));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(4096, 4));
  EXPECT_GE(sstack.Get<FragmentProtocol>()->stats().nacks_sent, 1u);
  EXPECT_GE(cstack.Get<FragmentProtocol>()->stats().nacks_received, 1u);
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().fragments_resent, 1u);
}

TEST_F(FragmentFixture, LostMiddleFragmentCompletesAtExactTime) {
  // The receiver pushes its gap timer back on every fragment, so the one
  // NACK goes out nack_delay after the last fragment that did arrive, and
  // the message completes when the resent fragment lands. The completion
  // time is pinned to the nanosecond: a push-back that re-keys the pending
  // timer must fire it exactly where cancelling and re-setting it did.
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 7 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  SimTime completed_at = -1;
  sa->on_receive = [&](Message&, Session*) { completed_at = sh->kernel->now(); };
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(16384, 3));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(16384, 3));
  EXPECT_EQ(sstack.Get<FragmentProtocol>()->stats().nacks_sent, 1u);
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().nacks_received, 1u);
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().fragments_resent, 1u);
  // Measured when each push-back cancelled the timer and set a new one.
  EXPECT_EQ(completed_at, SimTime{41275310});
}

TEST_F(FragmentFixture, NackServedAfterSendRingGrew) {
  // The send cache is a seq-indexed ring that doubles when the live window
  // outruns it. Lose a fragment of the first message, then send enough more
  // to force growth before the receiver's NACK comes back: the resend must
  // still find the first message's slices where the grown ring rehomed them.
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(4096, 4));
  constexpr int kMore = 40;
  for (int i = 0; i < kMore; ++i) {
    Send(sess, PatternBytes(64, static_cast<uint8_t>(i)));
  }
  net->RunAll();
  ASSERT_EQ(sa->received.size(), static_cast<size_t>(kMore + 1));
  EXPECT_EQ(sa->received.back(), PatternBytes(4096, 4));  // completed last, after the NACK
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().nacks_received, 1u);
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().stale_nacks, 0u);
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().fragments_resent, 1u);
}

TEST_F(FragmentFixture, FragmentCountDisagreeingWithReassemblyIsRejected) {
  // A damaged header can claim more fragments than the message being
  // reassembled under its seq; its index must not reach past the slots that
  // message was given. Start a 4-fragment message (losing fragment 1 so it
  // stays open), then hand the server a fragment of "seq 1" claiming to be
  // index 10 of 16.
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(4096, 4));
  net->events().RunUntil(Msec(10));  // fragments 0, 2, 3 are in; the NACK is not yet due
  ASSERT_TRUE(sa->received.empty());

  Status injected;
  RunIn(*sh->kernel, [&] {
    const std::vector<uint8_t> payload = PatternBytes(64, 99);
    uint8_t raw[FragmentProtocol::kHeaderSize];
    WireWriter w(raw);
    w.PutU8(1);  // data
    w.PutIpAddr(ch->kernel->ip_addr());
    w.PutIpAddr(sh->kernel->ip_addr());
    w.PutU32(kRelProtoRawTest);
    w.PutU32(1);        // the open message's seq
    w.PutU16(16);       // num_frags
    w.PutU16(1u << 10);  // fragment 10
    w.PutU16(static_cast<uint16_t>(payload.size()));
    Message pkt = Message::FromBytes(payload);
    pkt.PushHeader(raw);
    injected = sstack.Get<FragmentProtocol>()->Demux(nullptr, pkt);
  });
  EXPECT_EQ(injected.code(), StatusCode::kInvalidArgument);

  // The real message still completes through the NACK path, unharmed.
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(4096, 4));
}

TEST_F(FragmentFixture, CorruptFragmentMaskClaimsNoReassembly) {
  // A damaged header whose mask names no fragment of its own message (two
  // bits set, or a bit past its fragment count) is rejected before it claims
  // a reassembly slot: no gap timer is armed, so no NACK for a message the
  // client never sent goes out, and nothing is later abandoned.
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(4096, 4));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);

  for (const uint16_t mask : {uint16_t{3}, uint16_t{1u << 5}}) {
    Status injected;
    RunIn(*sh->kernel, [&] {
      const std::vector<uint8_t> payload = PatternBytes(64, 99);
      uint8_t raw[FragmentProtocol::kHeaderSize];
      WireWriter w(raw);
      w.PutU8(1);  // data
      w.PutIpAddr(ch->kernel->ip_addr());
      w.PutIpAddr(sh->kernel->ip_addr());
      w.PutU32(kRelProtoRawTest);
      w.PutU32(77);  // a seq the client never sent
      w.PutU16(4);   // num_frags
      w.PutU16(mask);
      w.PutU16(static_cast<uint16_t>(payload.size()));
      Message pkt = Message::FromBytes(payload);
      pkt.PushHeader(raw);
      injected = sstack.Get<FragmentProtocol>()->Demux(nullptr, pkt);
    });
    EXPECT_EQ(injected.code(), StatusCode::kInvalidArgument) << "mask " << mask;
  }

  net->RunAll();
  EXPECT_EQ(sstack.Get<FragmentProtocol>()->stats().nacks_sent, 0u);
  EXPECT_EQ(sstack.Get<FragmentProtocol>()->stats().reassembly_abandoned, 0u);
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().stale_nacks, 0u);
  EXPECT_EQ(sa->received.size(), 1u);
}

TEST_F(FragmentFixture, MultipleLostFragmentsRecovered) {
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return (index == 0 || index == 2 || index == 5) ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(8192, 5));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(8192, 5));
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().fragments_resent, 3u);
}

TEST_F(FragmentFixture, AllFragmentsLostAbandonsAfterMaxNacks) {
  // If the sender is gone (every frame dropped), the receiver's NACKs go
  // unanswered and reassembly is abandoned -- FRAGMENT stays unreliable.
  int delivered = 0;
  net->segment(0).set_fault_hook([&](const EthFrame&, int receiver, uint64_t, SimTime) {
    // Let exactly one data fragment through to start reassembly, then cut
    // the client->server direction; NACKs (server->client) also die.
    (void)receiver;
    return ++delivered <= 1 ? LinkFault::kDeliver : LinkFault::kDrop;
  });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(4096, 6));
  net->RunAll();
  EXPECT_EQ(sa->received.size(), 0u);
  EXPECT_EQ(sstack.Get<FragmentProtocol>()->stats().reassembly_abandoned, 1u);
  EXPECT_EQ(sstack.Get<FragmentProtocol>()->stats().nacks_sent,
            static_cast<uint64_t>(3));  // max_nacks default
}

TEST_F(FragmentFixture, StaleNackAfterCacheExpiry) {
  // Make the send cache expire before the receiver's NACK arrives.
  RunIn(*ch->kernel, [&] { cstack.Get<FragmentProtocol>()->set_send_cache_timeout(Msec(5)); });
  RunIn(*sh->kernel, [&] { sstack.Get<FragmentProtocol>()->set_nack_delay(Msec(50)); });
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(3000, 7));
  net->RunAll();
  EXPECT_EQ(sa->received.size(), 0u);  // never completed
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().cache_expirations, 1u);
  EXPECT_GE(cstack.Get<FragmentProtocol>()->stats().stale_nacks, 1u);
  EXPECT_EQ(sstack.Get<FragmentProtocol>()->stats().reassembly_abandoned, 1u);
}

TEST_F(FragmentFixture, DuplicateFragmentsIgnoredDuringReassembly) {
  net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index < 2 ? LinkFault::kDuplicate : LinkFault::kDeliver;
  });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(4000, 8));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(sa->received[0], PatternBytes(4000, 8));
}

TEST_F(FragmentFixture, LateDuplicateOfCompletedMessageSuppressed) {
  // Duplicate every frame: the second copies arrive after completion and must
  // not rebuild reassembly state or deliver twice (recent-window check).
  net->segment(0).set_fault_hook(
      [](const EthFrame&, int, uint64_t, SimTime) { return LinkFault::kDuplicate; });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(2048, 9));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
}

TEST_F(FragmentFixture, DuplicateOfSingleFragmentMessageDeliversTwice) {
  // FRAGMENT is unreliable: duplicates of single-fragment messages MAY be
  // delivered twice (the higher level filters). This distinguishes it from a
  // reliable protocol.
  net->segment(0).set_fault_hook(
      [](const EthFrame&, int, uint64_t, SimTime) { return LinkFault::kDuplicate; });
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(100, 10));
  net->RunAll();
  EXPECT_EQ(sa->received.size(), 2u);
}

TEST_F(FragmentFixture, ResendIsIndependentMessage) {
  // "FRAGMENT treats the second incarnation of the message as an independent
  // message; i.e., it is assigned a new FRAGMENT-level sequence number."
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(64, 11));
  Send(sess, PatternBytes(64, 11));  // higher level resends the same bytes
  net->RunAll();
  EXPECT_EQ(sa->received.size(), 2u);
  EXPECT_EQ(cstack.Get<FragmentProtocol>()->stats().messages_sent, 2u);
}

TEST_F(FragmentFixture, InterleavedMessagesReassembleIndependently) {
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(3000, 1));
  Send(sess, PatternBytes(3000, 2));
  Send(sess, PatternBytes(100, 3));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 3u);
  EXPECT_EQ(sa->received[0], PatternBytes(3000, 1));
  EXPECT_EQ(sa->received[1], PatternBytes(3000, 2));
  EXPECT_EQ(sa->received[2], PatternBytes(100, 3));
}

TEST_F(FragmentFixture, BidirectionalTrafficOnOneSession) {
  SessionRef csess = OpenToServer();
  Send(csess, PatternBytes(50, 1));
  net->RunAll();
  ASSERT_EQ(sa->accepted.size(), 1u);
  SessionRef ssess = sa->accepted[0];
  RunIn(*sh->kernel, [&] {
    Message back = Message::FromBytes(PatternBytes(2222, 2));
    EXPECT_TRUE(ssess->Push(back).ok());
  });
  net->RunAll();
  ASSERT_EQ(ca->received.size(), 1u);
  EXPECT_EQ(ca->received[0], PatternBytes(2222, 2));
}

TEST_F(FragmentFixture, ControlOps) {
  RunIn(*ch->kernel, [&] {
    ControlArgs args;
    EXPECT_TRUE(cstack.Get<FragmentProtocol>()->Control(ControlOp::kGetMaxPacket, args).ok());
    EXPECT_EQ(args.u64, FragmentProtocol::kMaxMessage);
    EXPECT_TRUE(cstack.Get<FragmentProtocol>()->Control(ControlOp::kGetOptPacket, args).ok());
    EXPECT_EQ(args.u64, FragmentProtocol::kFragSize);
    // What FRAGMENT tells VIP at open time: one fragment + header.
    EXPECT_TRUE(cstack.Get<FragmentProtocol>()->Control(ControlOp::kGetMaxSendSize, args).ok());
    EXPECT_EQ(args.u64, FragmentProtocol::kFragSize + FragmentProtocol::kHeaderSize);
  });
}

TEST_F(FragmentFixture, VipSeesFragmentAsSmallSender) {
  // Because FRAGMENT reports max send = 1047 bytes, VIP under it opens the
  // ETH path only for a local peer.
  SessionRef sess = OpenToServer();
  Send(sess, PatternBytes(8000, 12));
  net->RunAll();
  ASSERT_EQ(sa->received.size(), 1u);
  EXPECT_EQ(ch->ip->stats().datagrams_sent, 0u);  // everything went raw ETH
}

// Property: random payload sizes survive random loss patterns (within the
// NACK budget) or are cleanly abandoned -- never corrupted, never duplicated
// for multi-fragment messages.
class FragmentLossPropertyTest : public FragmentFixture,
                                 public ::testing::WithParamInterface<uint64_t> {};

TEST_P(FragmentLossPropertyTest, RandomSizesSurviveRandomLoss) {
  Rng rng(GetParam());
  // Drop ~10% of frames, but never NACKs' retransmissions forever: cap drops.
  int drops_left = 6;
  net->segment(0).set_fault_hook([&](const EthFrame&, int, uint64_t, SimTime) {
    if (drops_left > 0 && rng.Chance(0.1)) {
      --drops_left;
      return LinkFault::kDrop;
    }
    return LinkFault::kDeliver;
  });

  std::vector<std::vector<uint8_t>> sent;
  SessionRef sess = OpenToServer();
  for (int i = 0; i < 8; ++i) {
    sent.push_back(PatternBytes(rng.NextInRange(1, 16384), static_cast<uint8_t>(i)));
    Send(sess, sent.back());
    net->RunAll();
  }
  // Every delivered message must exactly equal one of the sent ones, in
  // order (some may be missing; none may be corrupted).
  size_t next = 0;
  for (const auto& got : sa->received) {
    while (next < sent.size() && sent[next] != got) {
      ++next;
    }
    ASSERT_LT(next, sent.size()) << "delivered message matches nothing sent";
    ++next;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentLossPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace xk
