// Generic idle-session eviction (core Protocol LRU + sweep timer), exercised
// through UDP -- the simplest slab-pooled, idle-capable protocol. Pins the
// control-op surface (kSetIdleTimeout / kGetIdleTimeout / kEvictIdle), the
// external-reference veto, LRU ordering, park-and-relink for declined
// sessions, and the live-session count the session-owning protocols keep.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/session_scale.h"
#include "src/app/stacks.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "tests/test_util.h"

namespace xk {
namespace {

struct IdleEvictionFixture : ::testing::Test {
  void SetUp() override {
    net = Internet::TwoHosts();
    client = &net->host("client");
    server = &net->host("server");
    cudp = BuildStack(*client, "udp/ip").Get<UdpProtocol>();
    sudp = BuildStack(*server, "udp/ip").Get<UdpProtocol>();
    RunIn(*client->kernel, [&] { ca = &client->kernel->Emplace<TestAnchor>(*client->kernel); });
    RunIn(*server->kernel, [&] {
      sa = &server->kernel->Emplace<TestAnchor>(*server->kernel);
      ParticipantSet enable;
      enable.local.port = 7;
      EXPECT_TRUE(sudp->OpenEnable(*sa, enable).ok());
    });
  }

  // Opens a client session and immediately drops the test's reference, so the
  // active map holds the only one (the evictable steady state).
  void OpenAndDrop(uint16_t local_port) { (void)OpenHeld(local_port); }

  SessionRef OpenHeld(uint16_t local_port) {
    SessionRef out;
    RunIn(*client->kernel, [&] {
      ParticipantSet parts;
      parts.local.port = local_port;
      parts.peer.host = server->kernel->ip_addr();
      parts.peer.port = 7;
      Result<SessionRef> sess = cudp->Open(*ca, parts);
      ASSERT_TRUE(sess.ok());
      out = *sess;
    });
    return out;
  }

  Status SetIdleTimeout(Protocol& p, SimTime t) {
    Status out = OkStatus();
    RunIn(*client->kernel, [&] {
      ControlArgs args;
      args.u64 = static_cast<uint64_t>(t);
      out = p.Control(ControlOp::kSetIdleTimeout, args);
    });
    return out;
  }

  std::unique_ptr<Internet> net;
  HostStack* client = nullptr;
  HostStack* server = nullptr;
  UdpProtocol* cudp = nullptr;
  UdpProtocol* sudp = nullptr;
  TestAnchor* ca = nullptr;
  TestAnchor* sa = nullptr;
};

TEST_F(IdleEvictionFixture, IdleOpsAreUnsupportedBelowTheSessionLayer) {
  // IP (and ETH under it) never call TrackIdle, so the ops fall through the
  // whole lower stack and come back unsupported -- they are meaningful only
  // at a session-owning layer.
  RunIn(*client->kernel, [&] {
    ControlArgs args;
    args.u64 = 1000;
    EXPECT_EQ(client->ip->Control(ControlOp::kSetIdleTimeout, args).code(),
              StatusCode::kUnsupported);
    EXPECT_EQ(client->ip->Control(ControlOp::kGetIdleTimeout, args).code(),
              StatusCode::kUnsupported);
    EXPECT_EQ(client->ip->Control(ControlOp::kEvictIdle, args).code(),
              StatusCode::kUnsupported);
  });
}

TEST_F(IdleEvictionFixture, TimeoutRoundTripsThroughControl) {
  EXPECT_TRUE(SetIdleTimeout(*cudp, Msec(3)).ok());
  RunIn(*client->kernel, [&] {
    ControlArgs args;
    EXPECT_TRUE(cudp->Control(ControlOp::kGetIdleTimeout, args).ok());
    EXPECT_EQ(args.u64, static_cast<uint64_t>(Msec(3)));
  });
  EXPECT_EQ(cudp->idle_timeout(), Msec(3));
}

TEST_F(IdleEvictionFixture, SweepTimerEvictsIdleSessionsToQuiescence) {
  for (uint16_t p = 100; p < 108; ++p) {
    OpenAndDrop(p);
  }
  EXPECT_EQ(cudp->live_sessions(), 8u);
  EXPECT_TRUE(SetIdleTimeout(*cudp, Msec(5)).ok());
  net->RunAll();  // the one-shot sweep fires, evicts, and does not re-arm
  EXPECT_EQ(cudp->live_sessions(), 0u);
  EXPECT_EQ(cudp->idle_evictions(), 8u);
  EXPECT_EQ(cudp->idle_tracked(), 0u);
}

TEST_F(IdleEvictionFixture, ZeroTimeoutDisablesTheSweep) {
  OpenAndDrop(100);
  EXPECT_TRUE(SetIdleTimeout(*cudp, 0).ok());
  net->RunAll();
  EXPECT_EQ(cudp->live_sessions(), 1u);
  EXPECT_EQ(cudp->idle_evictions(), 0u);
}

TEST_F(IdleEvictionFixture, ExternalReferenceVetoesEvictionUntilDropped) {
  SessionRef held = OpenHeld(100);
  OpenAndDrop(101);
  EXPECT_TRUE(SetIdleTimeout(*cudp, Msec(5)).ok());
  net->RunAll();
  // The unreferenced session went; the held one declined and was parked.
  EXPECT_EQ(cudp->live_sessions(), 1u);
  EXPECT_EQ(cudp->idle_evictions(), 1u);
  EXPECT_EQ(cudp->idle_declined(), 1u);
  EXPECT_EQ(cudp->idle_tracked(), 0u);  // parked = off the LRU list

  // Parked is not forgotten: traffic relinks it, and once the external ref
  // is gone the next sweep reclaims it.
  RunIn(*client->kernel, [&] {
    Message msg = Message::FromBytes(Bytes({1, 2, 3}));
    EXPECT_TRUE(held->Push(msg).ok());
  });
  EXPECT_EQ(cudp->idle_tracked(), 1u);
  held.reset();
  net->RunAll();
  EXPECT_EQ(cudp->live_sessions(), 0u);
  EXPECT_EQ(cudp->idle_evictions(), 2u);
}

TEST_F(IdleEvictionFixture, EvictIdleSweepsImmediatelyAndRespectsMinIdle) {
  OpenAndDrop(100);  // oldest
  net->RunAll();
  const SimTime gap = Msec(10);
  // Age the first session by `gap`, then open a fresh one.
  client->kernel->RunTask(net->events().now() + gap, [&] {});
  net->RunAll();
  OpenAndDrop(101);

  RunIn(*client->kernel, [&] {
    ControlArgs args;
    args.u64 = static_cast<uint64_t>(Msec(5));  // only the aged one qualifies
    ASSERT_TRUE(cudp->Control(ControlOp::kEvictIdle, args).ok());
    EXPECT_EQ(args.u64, 1u);  // evicted count comes back in args
  });
  EXPECT_EQ(cudp->live_sessions(), 1u);

  RunIn(*client->kernel, [&] {
    ControlArgs args;
    args.u64 = 0;  // min idle 0: everything goes
    ASSERT_TRUE(cudp->Control(ControlOp::kEvictIdle, args).ok());
    EXPECT_EQ(args.u64, 1u);
  });
  EXPECT_EQ(cudp->live_sessions(), 0u);
}

TEST_F(IdleEvictionFixture, ActivityRefreshesLruOrder) {
  SessionRef hot = OpenHeld(100);
  OpenAndDrop(101);
  net->RunAll();
  // Age both, then touch the held one.
  client->kernel->RunTask(net->events().now() + Msec(10), [&] {
    Message msg = Message::FromBytes(Bytes({9}));
    EXPECT_TRUE(hot->Push(msg).ok());
  });
  net->RunAll();
  hot.reset();  // now unreferenced, but recently active

  RunIn(*client->kernel, [&] {
    ControlArgs args;
    args.u64 = static_cast<uint64_t>(Msec(5));
    ASSERT_TRUE(cudp->Control(ControlOp::kEvictIdle, args).ok());
    EXPECT_EQ(args.u64, 1u);  // only the stale one; the touched one is young
  });
  EXPECT_EQ(cudp->live_sessions(), 1u);
}

TEST_F(IdleEvictionFixture, CountersAndGaugesExportEvictionState) {
  for (uint16_t p = 100; p < 103; ++p) {
    OpenAndDrop(p);
  }
  EXPECT_EQ(cudp->live_sessions(), 3u);

  EXPECT_TRUE(SetIdleTimeout(*cudp, Msec(5)).ok());
  net->RunAll();

  EXPECT_EQ(cudp->idle_evictions(), 3u);
  EXPECT_EQ(cudp->idle_declined(), 0u);
  EXPECT_EQ(cudp->live_sessions(), 0u);
}

// The churn soak's plateau, in simulated state rather than process RSS: a
// second and third open -> drain cycle reuse cycle 1's slab slots and map
// buckets, so the slot count, high-water, map capacity, tombstones and
// longest probe chain after three cycles equal those after one, and every
// session of every cycle is evicted.
TEST(SessionScaleSoak, SlotsAndMapGeometryPlateauAcrossCycles) {
  for (const size_t n : {size_t{1000}, size_t{3000}}) {
    SessionScaleSpec spec;
    spec.sessions = n;
    spec.cycles = 1;
    const SessionScaleBench one = MeasureSessionScale(spec);
    spec.cycles = 3;
    const SessionScaleBench three = MeasureSessionScale(spec);
    for (const SessionScaleBench* b : {&one, &three}) {
      const uint64_t cycles = static_cast<uint64_t>(b->cycles);
      EXPECT_EQ(b->client_slots, (n + 63) / 64 * 64) << "n=" << n << " cycles=" << cycles;
      EXPECT_EQ(b->client_live_after, 0u) << "n=" << n << " cycles=" << cycles;
      EXPECT_EQ(b->client_evicted, cycles * n) << "n=" << n << " cycles=" << cycles;
    }
    EXPECT_EQ(three.client_slots, one.client_slots) << "n=" << n;
    EXPECT_EQ(three.client_high_water, one.client_high_water) << "n=" << n;
    EXPECT_EQ(three.map_capacity_peak, one.map_capacity_peak) << "n=" << n;
    EXPECT_EQ(three.map_tombstones_after, one.map_tombstones_after) << "n=" << n;
    EXPECT_EQ(three.map_max_probe_peak, one.map_max_probe_peak) << "n=" << n;
  }
}

}  // namespace
}  // namespace xk
