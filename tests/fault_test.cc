// Tests for the declarative fault-campaign engine (src/sim/fault.h): plan
// parsing, the no-draws-outside-windows determinism guarantee, partitions
// that heal, duplicate storms, a scheduled server crash/restart campaign
// checked by the at-most-once oracle, and the corruption-detection guarantee
// (a corrupted frame is either rejected by a checksum/demux check or
// delivered with its payload intact -- never silently mangled).

#include "src/sim/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/app/workload.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "tests/rpc_util.h"

namespace xk {
namespace {

// --- plan parsing -------------------------------------------------------------

TEST(FaultPlanTest, ParseToStringRoundTrip) {
  FaultPlan plan;
  std::string error;
  const char* spec =
      "drop:seg=0,from=10ms,until=20ms,rate=0.25;"
      "partition:seg=1,from=5ms,until=40ms;"
      "ge:seg=0,from=0s,until=1s,p_enter=0.01,p_exit=0.2,loss_good=0.001,loss_bad=0.9;"
      "dup:seg=0,from=2ms,until=3ms,rate=0.5;"
      "delay:seg=0,from=1ms,until=9ms,rate=1,delay=500us;"
      "corrupt:seg=0,from=0s,until=100ms,rate=0.125;"
      "crash:host=server,at=50ms,restart=80ms;"
      "seed:42";
  ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << error;
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.clauses.size(), 7u);
  EXPECT_EQ(plan.clauses[0].kind, FaultClause::Kind::kDropWindow);
  EXPECT_EQ(plan.clauses[0].rate, 0.25);
  EXPECT_EQ(plan.clauses[1].kind, FaultClause::Kind::kPartition);
  EXPECT_EQ(plan.clauses[1].segment, 1);
  EXPECT_EQ(plan.clauses[2].kind, FaultClause::Kind::kGilbertElliott);
  EXPECT_EQ(plan.clauses[2].loss_bad, 0.9);
  EXPECT_EQ(plan.clauses[4].delay, Usec(500));
  EXPECT_EQ(plan.clauses[6].kind, FaultClause::Kind::kCrash);
  EXPECT_EQ(plan.clauses[6].host, "server");
  EXPECT_EQ(plan.clauses[6].at, Msec(50));
  EXPECT_EQ(plan.clauses[6].restart_at, Msec(80));

  // ToString -> Parse -> ToString is a fixed point.
  const std::string printed = plan.ToString();
  FaultPlan reparsed;
  ASSERT_TRUE(FaultPlan::Parse(printed, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), printed);
}

TEST(FaultPlanTest, BuildersRoundTripThroughToString) {
  FaultPlan plan;
  plan.seed = 7;
  plan.DropWindow(0, Msec(10), Msec(20), 0.5)
      .Partition(0, Msec(30), Msec(40))
      .GilbertElliott(-1, 0, Sec(2), 0.02, 0.3, 0.0, 1.0)
      .DelaySpike(0, Msec(1), Msec(2), 0.25, Usec(750))
      .Crash("server", Msec(50), Msec(90));
  EXPECT_TRUE(plan.HasLinkClauses());
  EXPECT_TRUE(plan.HasCrashClauses());

  FaultPlan reparsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(plan.ToString(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), plan.ToString());
  EXPECT_EQ(reparsed.seed, 7u);
  ASSERT_EQ(reparsed.clauses.size(), plan.clauses.size());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  for (const char* spec : {
           "bogus:seg=0",
           "drop:seg=0,from=10xs",
           "drop:seg=0,rate=abc",
           "crash:at=10ms",  // missing host
           "drop:wibble=3",
           "drop:seg=4294967296,rate=0.1",  // would wrap to segment 0
           "drop:seg=0,from=1e30s",         // past SimTime's range
           "drop:seg=0,until=nan",
           "drop:seg=0,from=-5ms",
           "crash:host=server,at=-5ms",
           "delay:seg=0,rate=1,delay=inf",
           "drop:seg=0,rate=1.5",
           "drop:seg=0,rate=nan",
           "ge:seg=0,p_enter=7",
           "ge:seg=0,p_exit=-1",
           "seed:-1",  // strtoull reads it as 2^64-1
           "seed:+5",
           "seed:18446744073709551616",  // 2^64
       }) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultPlanTest, ParseErrorsNameTheOffendingToken) {
  FaultPlan plan;
  std::string error;

  // Unknown kind.
  EXPECT_FALSE(FaultPlan::Parse("bogus:seg=0", &plan, &error));
  EXPECT_NE(error.find("'bogus'"), std::string::npos) << error;

  // Bare key without '='.
  EXPECT_FALSE(FaultPlan::Parse("drop:seg", &plan, &error));
  EXPECT_NE(error.find("'seg'"), std::string::npos) << error;

  // Unknown key names both the key and the clause kind.
  EXPECT_FALSE(FaultPlan::Parse("drop:wibble=3", &plan, &error));
  EXPECT_NE(error.find("'wibble'"), std::string::npos) << error;
  EXPECT_NE(error.find("'drop'"), std::string::npos) << error;

  // Bad time value.
  EXPECT_FALSE(FaultPlan::Parse("drop:seg=0,from=10xs", &plan, &error));
  EXPECT_NE(error.find("'10xs'"), std::string::npos) << error;
  EXPECT_NE(error.find("'from'"), std::string::npos) << error;

  // Bad rate value.
  EXPECT_FALSE(FaultPlan::Parse("drop:seg=0,rate=abc", &plan, &error));
  EXPECT_NE(error.find("'abc'"), std::string::npos) << error;
  EXPECT_NE(error.find("'rate'"), std::string::npos) << error;
}

TEST(FaultPlanTest, ParseRejectsGarbageSeed) {
  // std::strtoull with a null end pointer used to read "seed:banana" as 0.
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse("seed:banana", &plan, &error));
  EXPECT_NE(error.find("'banana'"), std::string::npos) << error;
  EXPECT_NE(error.find("seed"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FaultPlan::Parse("seed:12x", &plan, &error));  // trailing garbage
  EXPECT_NE(error.find("'12x'"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FaultPlan::Parse("seed:", &plan, &error));  // empty value
  EXPECT_FALSE(error.empty());
}

TEST(FaultPlanTest, ParseRejectsGarbageSegment) {
  // std::atoi used to read seg=abc as segment 0 without complaint.
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse("drop:seg=abc,from=0ms,until=1ms,rate=0.5", &plan, &error));
  EXPECT_NE(error.find("'abc'"), std::string::npos) << error;
  EXPECT_NE(error.find("'seg'"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FaultPlan::Parse("drop:seg=1x,from=0ms,until=1ms,rate=0.5", &plan, &error));
  EXPECT_NE(error.find("'1x'"), std::string::npos) << error;

  // -1 is the all-segments wildcard; other negatives don't exist.
  error.clear();
  EXPECT_FALSE(FaultPlan::Parse("drop:seg=-2,from=0ms,until=1ms,rate=0.5", &plan, &error));
  EXPECT_NE(error.find("'-2'"), std::string::npos) << error;
  ASSERT_TRUE(FaultPlan::Parse("drop:seg=-1,from=0ms,until=1ms,rate=0.5", &plan, &error))
      << error;
  EXPECT_EQ(plan.clauses.back().segment, -1);

  // A valid segment still parses.
  error.clear();
  ASSERT_TRUE(FaultPlan::Parse("drop:seg=3,from=0ms,until=1ms,rate=0.5", &plan, &error))
      << error;
  EXPECT_EQ(plan.clauses.back().segment, 3);
}

// --- determinism --------------------------------------------------------------

// Runs a fixed echo workload and returns its fingerprint: the full trace and
// packet capture of the run plus the number of events fired.
std::string RunEchoWorkload(const FaultPlan* plan) {
  TraceSink sink;
  PacketCapture capture;
  std::unique_ptr<Internet> net;
  {
    ScopedObservers obs(&sink, &capture);
    net = Internet::TwoHosts();
  }
  RpcFixture fix(std::move(net));
  fix.Build(kLRpcVip);
  std::optional<FaultEngine> engine;
  if (plan != nullptr) {
    engine.emplace(*fix.net, *plan);
  }
  for (int i = 0; i < 6; ++i) {
    Result<Message> r = fix.CallSync(1, Message::FromBytes(PatternBytes(256, uint8_t(i))));
    EXPECT_TRUE(r.ok()) << "call " << i;
  }
  return sink.ToJsonl() + capture.ToJsonl() + std::to_string(fix.net->events_fired());
}

TEST(FaultEngineTest, WindowOutsideTheWorkloadPerturbsNothing) {
  // The engine consults its RNG only while a clause's window is active, so a
  // fault window scheduled long after the workload ends must leave the run
  // bit-identical to a fault-free one -- every span, frame and event count.
  const std::string baseline = RunEchoWorkload(nullptr);

  FaultPlan inert;
  inert.DropWindow(0, Sec(100), Sec(101), 1.0)
      .GilbertElliott(-1, Sec(200), Sec(201), 0.5, 0.5, 0.1, 0.9)
      .CorruptWindow(0, Sec(300), Sec(301), 1.0);
  EXPECT_EQ(RunEchoWorkload(&inert), baseline);
}

TEST(FaultEngineTest, ActiveWindowChangesTheFingerprint) {
  // The converse, so the fingerprint above cannot pass by never changing: a
  // drop window over the first calls forces retransmissions, which the trace,
  // the capture and the event count all show.
  FaultPlan active;
  active.DropWindow(0, 0, Msec(20), 1.0);
  EXPECT_NE(RunEchoWorkload(&active), RunEchoWorkload(nullptr));
}

TEST(FaultEngineTest, SamePlanSameSeedIsReproducible) {
  FaultPlan plan;
  plan.seed = 11;
  plan.DropWindow(0, 0, Msec(30), 0.3).DuplicateStorm(0, Msec(30), Msec(60), 0.5);
  EXPECT_EQ(RunEchoWorkload(&plan), RunEchoWorkload(&plan));
}

// --- link-fault campaigns over the RPC stack ----------------------------------

TEST(FaultEngineTest, PartitionHealsAndCallCompletes) {
  RpcFixture fix;
  fix.Build(kLRpcVip);

  FaultPlan plan;
  plan.Partition(0, 0, Msec(80));
  FaultEngine faults(*fix.net, plan);

  // The call is issued inside the partition; CHANNEL retransmits through it
  // and the retry that lands after the heal completes the call.
  Result<Message> r = fix.CallSync(1, Message::FromBytes(PatternBytes(64, 1)));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(fix.cstack.Get<ChannelProtocol>()->stats().retransmissions, 1u);
  EXPECT_GT(fix.net->segment(0).fault_drops(), 0u);
  EXPECT_GT(faults.decisions(), 0u);
}

TEST(FaultEngineTest, DuplicateStormIsSuppressedByChannel) {
  RpcFixture fix;
  fix.Build(kLRpcVip);

  FaultPlan plan;
  plan.DuplicateStorm(0, 0, 0, 1.0);  // open-ended: duplicate every frame
  FaultEngine faults(*fix.net, plan);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fix.CallSync(1, Message::FromBytes(PatternBytes(64, uint8_t(i)))).ok());
  }
  EXPECT_GT(fix.net->segment(0).fault_duplicates(), 0u);
  // Every request arrived twice; the server executed each exactly once.
  EXPECT_EQ(fix.sstack.Get<ChannelProtocol>()->stats().requests_executed, 4u);
  EXPECT_GE(fix.sstack.Get<ChannelProtocol>()->stats().duplicates_suppressed +
                fix.sstack.Get<ChannelProtocol>()->stats().stale_drops,
            1u);
}

// --- crash/restart campaign, checked by the at-most-once oracle ---------------

TEST(FaultEngineTest, ServerCrashCampaignIsOracleCleanAndRecovers) {
  AmoOracle oracle;
  RpcFixture fix;
  fix.Build(kLRpcVip, /*export_echo=*/false);
  RunIn(*fix.sh->kernel, [&] {
    EXPECT_TRUE(fix.server->Export(RpcServer::kAny, oracle.WrapEcho(fix.sh->kernel)).ok());
  });
  // Replace the fixture's restart hook so the rebuilt server records
  // executions in the same oracle (under its new boot id).
  fix.net->set_restart_hook("server", [&fix, &oracle](HostStack& h) {
    fix.sstack = BuildStack(h, kLRpcVip);
    fix.server = &h.kernel->Emplace<RpcServer>(*h.kernel, fix.sstack.top);
    (void)fix.server->Export(RpcServer::kAny, oracle.WrapEcho(h.kernel));
  });
  const uint32_t boot_before = fix.sh->kernel->boot_id();

  // Crash the server mid-workload; restart it 400ms later -- longer than
  // CHANNEL's retry budget (5 retries x 50ms), so the call spanning the
  // outage surfaces a timeout instead of riding it out.
  FaultPlan plan;
  plan.Crash("server", Msec(100), Msec(500));
  FaultEngine faults(*fix.net, plan);

  ChaosSpec spec;
  spec.payload_bytes = 64;
  spec.calls = 40;
  spec.gap = Msec(5);
  spec.crash_at = Msec(100);
  CallFn call = [&fix](Message args, std::function<void(Result<Message>)> done) {
    fix.client->Call(fix.server_addr(), 1, std::move(args), std::move(done));
  };
  ChaosResult r = RpcWorkload::RunChaos(*fix.net, *fix.ch->kernel, call, oracle, spec);

  EXPECT_EQ(r.issued, 40);
  EXPECT_EQ(r.completed + r.failed, 40);
  EXPECT_GE(r.completed, 35);
  EXPECT_GE(r.failed, 1);  // the call spanning the outage exhausts its retries
  EXPECT_GT(r.recovery_latency, 0);
  EXPECT_LT(r.recovery_latency, Msec(500));

  AmoOracle::Report rep = oracle.Finish();
  EXPECT_TRUE(rep.clean()) << "double=" << rep.double_executions
                           << " mismatched=" << rep.mismatched_replies
                           << " unknown=" << rep.unknown_replies << " silent=" << rep.silent;
  EXPECT_EQ(rep.issued, 40u);
  EXPECT_EQ(rep.completed, static_cast<uint64_t>(r.completed));
  EXPECT_EQ(rep.failed, static_cast<uint64_t>(r.failed));
  // A pure crash (no message loss) never re-executes: requests in flight
  // toward the dead host drop at the wire, and an executed request's reply
  // is already in flight when the crash lands.
  EXPECT_EQ(rep.cross_boot_reexecutions, 0u);
  EXPECT_GT(rep.executions, 0u);

  // The restart bumped the boot id; the client observed it via CHANNEL and
  // its retransmissions into the outage died at the detached station.
  EXPECT_EQ(fix.sh->kernel->boot_id(), boot_before + 1);
  EXPECT_GE(fix.cstack.Get<ChannelProtocol>()->stats().boot_resets, 1u);
  EXPECT_GT(fix.net->segment(0).down_drops(), 0u);
}

// --- corruption detection -----------------------------------------------------

// A sink protocol that records every payload delivered to it.
class CaptureAnchor final : public Protocol {
 public:
  explicit CaptureAnchor(Kernel& kernel) : Protocol(kernel, "capture", {}) {}

  std::vector<std::vector<uint8_t>> payloads;

 protected:
  Status DoDemux(Session* lls, Message& msg) override {
    (void)lls;
    payloads.push_back(msg.Flatten());
    return OkStatus();
  }
};

TEST(FaultEngineTest, CorruptedFramesNeverReachTheAnchorUndetected) {
  // Randomize the flip position via the plan seed: every corrupted frame must
  // be rejected somewhere (Ethernet demux, IP header checksum, UDP checksum)
  // or delivered with its payload intact (flips confined to header fields a
  // point-to-point delivery does not depend on). The receive path cascades
  // drops down to the Ethernet layer, so the server's Ethernet demux_drops
  // counter is the total rejection count.
  uint64_t total_corrupted = 0;
  uint64_t total_ip_bad = 0;
  uint64_t total_udp_bad = 0;
  uint64_t total_eth_direct = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    auto net = Internet::TwoHosts();
    auto& ch = net->host("client");
    auto& sh = net->host("server");
    UdpProtocol* cudp = BuildUdp(ch);
    UdpProtocol* sudp = BuildUdp(sh);

    CaptureAnchor* capture = nullptr;
    RunIn(*sh.kernel, [&] {
      capture = &sh.kernel->Emplace<CaptureAnchor>(*sh.kernel);
      ParticipantSet enable;
      enable.local.port = 7;
      EXPECT_TRUE(sudp->OpenEnable(*capture, enable).ok());
    });
    CaptureAnchor* sender = nullptr;
    SessionRef sess;
    RunIn(*ch.kernel, [&] {
      sender = &ch.kernel->Emplace<CaptureAnchor>(*ch.kernel);
      ParticipantSet parts;
      parts.local.port = 1234;
      parts.peer.host = sh.kernel->ip_addr();
      parts.peer.port = 7;
      Result<SessionRef> r = cudp->Open(*sender, parts);
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        sess = *r;
      }
    });
    ASSERT_NE(sess, nullptr);

    FaultPlan plan;
    plan.seed = seed;
    plan.CorruptWindow(0, 0, 0, 0.5);  // open-ended: flip a byte in half the frames
    FaultEngine faults(*net, plan);

    const std::vector<uint8_t> payload = PatternBytes(96, 0x5A);
    const uint64_t kSends = 60;
    for (uint64_t i = 0; i < kSends; ++i) {
      ch.kernel->ScheduleTask(Msec(1) * static_cast<SimTime>(i + 1), [&sess, payload] {
        Message m = Message::FromBytes(payload);
        (void)sess->Push(m);
      });
    }
    net->RunAll();

    // No corrupted payload reached the anchor.
    for (const auto& got : capture->payloads) {
      EXPECT_EQ(got, payload);
    }
    // Every frame was either delivered (payload intact) or counted as a drop.
    const uint64_t captured = capture->payloads.size();
    const uint64_t eth_drops = sh.eth->counters().demux_drops;
    EXPECT_EQ(captured + eth_drops, kSends);

    const uint64_t corrupted = net->segment(0).fault_corruptions();
    EXPECT_GT(corrupted, 0u);
    total_corrupted += corrupted;
    total_ip_bad += sh.ip->stats().checksum_failures;
    total_udp_bad += sudp->checksum_failures();
    // Drops the Ethernet layer itself decided (corrupted dst address or
    // EtherType), as opposed to cascaded IP/UDP rejections.
    total_eth_direct += eth_drops - sh.ip->counters().demux_drops;
  }
  // Across the seeds, every detection layer fired at least once.
  EXPECT_GT(total_corrupted, 100u);
  EXPECT_GT(total_ip_bad, 0u);
  EXPECT_GT(total_udp_bad, 0u);
  EXPECT_GT(total_eth_direct, 0u);
}

}  // namespace
}  // namespace xk
