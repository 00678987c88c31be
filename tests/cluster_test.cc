// Tests for the cluster subsystem (src/cluster): VPOOL load-spreading
// policies and health tracking, the id-paired ClusterClient, open-loop
// arrival generators, and the datacenter topology builder -- including the
// engine-width bit-identity guarantee for the whole datacenter measurement.

#include "src/cluster/vpool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/cluster/arrivals.h"
#include "src/cluster/client.h"
#include "src/cluster/datacenter.h"
#include "src/proto/topology.h"
#include "tests/test_util.h"

namespace xk {
namespace {

constexpr uint16_t kEcho = 1;
const IpAddr kVip(10, 99, 0, 1);

// One client plus a replica pool on a single segment, with the client's stack
// topped by VPOOL + ClusterClient and every replica serving the oracle echo.
struct PoolOptions {
  int replicas = 4;
  VpoolPolicy policy = VpoolPolicy::kRoundRobin;
  std::vector<uint32_t> weights;
  SimTime readmit_after = Msec(200);
  std::vector<SimTime> service_delays;  // per replica; missing entries = 0
};

class PoolFixture {
 public:
  explicit PoolFixture(const PoolOptions& opt) {
    net = std::make_unique<Internet>();
    const int seg = net->AddSegment();
    ch = &net->AddHost("client", seg, IpAddr(10, 0, 1, 100));
    std::vector<IpAddr> addrs;
    for (int r = 0; r < opt.replicas; ++r) {
      names.push_back("s" + std::to_string(r));
      addrs.push_back(IpAddr(10, 0, 1, static_cast<uint8_t>(r + 1)));
      net->AddHost(names.back(), seg, addrs.back());
    }
    net->WarmArp();

    for (int r = 0; r < opt.replicas; ++r) {
      HostStack& h = net->host(names[static_cast<size_t>(r)]);
      const SimTime delay = static_cast<size_t>(r) < opt.service_delays.size()
                                ? opt.service_delays[static_cast<size_t>(r)]
                                : 0;
      servers.push_back(InstallServer(h, delay));
      net->set_restart_hook(names[static_cast<size_t>(r)], [this, r, delay](HostStack& fresh) {
        // Runs inside the host's reboot task: build directly, no RunIn.
        RpcStack rebuilt = BuildStack(fresh, kLRpcVip);
        auto& server = fresh.kernel->Emplace<RpcServer>(*fresh.kernel, rebuilt.top);
        server.set_service_delay(delay);
        (void)server.Export(RpcServer::kAny, oracle.WrapEcho(fresh.kernel));
        servers[static_cast<size_t>(r)] = &server;
      });
    }

    cstack = BuildStack(*ch, kLRpcVip);
    RunIn(*ch->kernel, [&] {
      vpool = &ch->kernel->Emplace<VpoolProtocol>(*ch->kernel, cstack.top);
      vpool->BindService(kVip, addrs, opt.policy, opt.weights);
      vpool->set_readmit_after(opt.readmit_after);
      client = &ch->kernel->Emplace<ClusterClient>(*ch->kernel, vpool);
    });
  }

  // Issues one call to the virtual service and runs to quiescence.
  Result<Message> CallSync(uint16_t command = kEcho) {
    return CallSyncTo(kVip, command);
  }

  // Same, but to an explicit address (passthrough tests).
  Result<Message> CallSyncTo(IpAddr service, uint16_t command) {
    const uint64_t id = ++next_id_;
    Result<Message> result = ErrStatus(StatusCode::kError);
    bool done = false;
    RunIn(*ch->kernel, [&] {
      oracle.RecordIssued(id, ch->kernel->now());
      client->Call(service, command, id, AmoOracle::MakeRequest(id, 64),
                   [&](Result<Message> r) {
                     oracle.RecordOutcome(id, r, ch->kernel->now());
                     result = std::move(r);
                     done = true;
                   });
    });
    net->RunAll();
    EXPECT_TRUE(done) << "call never completed";
    return result;
  }

  // Schedules a call at absolute sim time `at` without waiting (open-loop-ish
  // issue pattern for concurrency-sensitive policies). Run net->RunAll()
  // afterwards; outcomes land in the oracle.
  void CallAt(SimTime at, uint16_t command = kEcho) {
    const uint64_t id = ++next_id_;
    ch->kernel->ScheduleTask(at, [this, id, command] {
      oracle.RecordIssued(id, ch->kernel->now());
      client->Call(kVip, command, id, AmoOracle::MakeRequest(id, 64),
                   [this, id](Result<Message> r) {
                     oracle.RecordOutcome(id, r, ch->kernel->now());
                   });
    });
  }

  RpcServer* InstallServer(HostStack& h, SimTime delay) {
    RpcStack stack = BuildStack(h, kLRpcVip);
    RpcServer* server = nullptr;
    RunIn(*h.kernel, [&] {
      server = &h.kernel->Emplace<RpcServer>(*h.kernel, stack.top);
      server->set_service_delay(delay);
      EXPECT_TRUE(server->Export(RpcServer::kAny, oracle.WrapEcho(h.kernel)).ok());
    });
    return server;
  }

  std::unique_ptr<Internet> net;
  HostStack* ch;
  RpcStack cstack;
  VpoolProtocol* vpool = nullptr;
  ClusterClient* client = nullptr;
  std::vector<std::string> names;
  std::vector<RpcServer*> servers;
  AmoOracle oracle;
  uint64_t next_id_ = 0;
};

// --- arrival-spec parsing -----------------------------------------------------

TEST(ArrivalSpecTest, ParseToStringRoundTrip) {
  ArrivalSpec spec;
  std::string error;
  ASSERT_TRUE(ArrivalSpec::Parse("poisson:rate=400,horizon=500ms,churn=50,seed=7", &spec,
                                 &error))
      << error;
  EXPECT_EQ(spec.kind, ArrivalSpec::Kind::kPoisson);
  EXPECT_EQ(spec.rate_cps, 400.0);
  EXPECT_EQ(spec.horizon, Msec(500));
  EXPECT_EQ(spec.churn_every, 50);
  EXPECT_EQ(spec.seed, 7u);

  ASSERT_TRUE(ArrivalSpec::Parse("onoff:rate=900,off_rate=100,on=100ms,off=100ms,horizon=1s",
                                 &spec, &error))
      << error;
  EXPECT_EQ(spec.kind, ArrivalSpec::Kind::kOnOff);
  EXPECT_EQ(spec.off_rate_cps, 100.0);
  EXPECT_EQ(spec.on_for, Msec(100));
  EXPECT_EQ(spec.horizon, Sec(1));

  // ToString -> Parse -> ToString is a fixed point for both kinds.
  for (const char* text :
       {"poisson:rate=400,horizon=500ms,churn=50,seed=7",
        "onoff:rate=900,off_rate=100,on=100ms,off=100ms,horizon=1s,seed=1"}) {
    ASSERT_TRUE(ArrivalSpec::Parse(text, &spec, &error)) << error;
    const std::string printed = spec.ToString();
    ArrivalSpec reparsed;
    ASSERT_TRUE(ArrivalSpec::Parse(printed, &reparsed, &error)) << error;
    EXPECT_EQ(reparsed.ToString(), printed);
  }
}

TEST(ArrivalSpecTest, ParseErrorsNameTheOffendingToken) {
  ArrivalSpec spec;
  std::string error;

  EXPECT_FALSE(ArrivalSpec::Parse("burst:rate=100", &spec, &error));
  EXPECT_NE(error.find("'burst'"), std::string::npos) << error;

  EXPECT_FALSE(ArrivalSpec::Parse("poisson:rate", &spec, &error));
  EXPECT_NE(error.find("'rate'"), std::string::npos) << error;

  EXPECT_FALSE(ArrivalSpec::Parse("poisson:wibble=3", &spec, &error));
  EXPECT_NE(error.find("'wibble'"), std::string::npos) << error;

  EXPECT_FALSE(ArrivalSpec::Parse("poisson:rate=abc", &spec, &error));
  EXPECT_NE(error.find("'abc'"), std::string::npos) << error;

  EXPECT_FALSE(ArrivalSpec::Parse("poisson:horizon=10xs", &spec, &error));
  EXPECT_NE(error.find("'10xs'"), std::string::npos) << error;

  EXPECT_FALSE(ArrivalSpec::Parse("poisson:rate=-5", &spec, &error));
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(ArrivalSpec::Parse("poisson:rate=100,horizon=0ms", &spec, &error));
  EXPECT_NE(error.find("horizon"), std::string::npos) << error;

  // onoff requires both phase lengths.
  EXPECT_FALSE(ArrivalSpec::Parse("onoff:rate=100,on=0ms,off=10ms,horizon=1s", &spec, &error));
  EXPECT_NE(error.find("on="), std::string::npos) << error;
}

// --- spreading policies -------------------------------------------------------

TEST(VpoolTest, RoundRobinSpreadsExactly) {
  PoolFixture fix(PoolOptions{});
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fix.CallSync().ok()) << "call " << i;
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(fix.vpool->replica_calls(r), 3u) << "replica " << r;
    EXPECT_EQ(fix.servers[static_cast<size_t>(r)]->requests_served(), 3u) << "replica " << r;
  }
  EXPECT_EQ(fix.vpool->down_marks(), 0u);
  EXPECT_TRUE(fix.oracle.Finish().clean());
}

TEST(VpoolTest, WeightedFollowsTheWeights) {
  PoolOptions opt;
  opt.replicas = 2;
  opt.policy = VpoolPolicy::kWeighted;
  opt.weights = {3, 1};
  PoolFixture fix(opt);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fix.CallSync().ok()) << "call " << i;
  }
  // Smooth WRR at weights 3:1 serves exactly 3 of every 4 from replica 0.
  EXPECT_EQ(fix.vpool->replica_calls(0), 6u);
  EXPECT_EQ(fix.vpool->replica_calls(1), 2u);
}

TEST(VpoolTest, LeastOutstandingRoutesAroundABusyReplica) {
  PoolOptions opt;
  opt.replicas = 2;
  opt.policy = VpoolPolicy::kLeastOutstanding;
  opt.service_delays = {Msec(100), 0};
  PoolFixture fix(opt);

  // Six calls spaced 10ms apart. The first lands on replica 0 (tie, lowest
  // index) and sits in its 100ms service time; every later call sees replica 0
  // with one outstanding and replica 1 idle, so the pool routes around it.
  for (int i = 0; i < 6; ++i) {
    fix.CallAt(Msec(10) * static_cast<SimTime>(i));
  }
  fix.net->RunAll();
  EXPECT_EQ(fix.vpool->replica_calls(0), 1u);
  EXPECT_EQ(fix.vpool->replica_calls(1), 5u);
  AmoOracle::Report rep = fix.oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.completed, 6u);
}

TEST(VpoolTest, HashAffinityPinsACommandAndFailsOverOnCrash) {
  PoolOptions opt;
  opt.policy = VpoolPolicy::kHashAffinity;
  opt.readmit_after = 0;  // never readmit: the failover target must be stable
  PoolFixture fix(opt);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fix.CallSync(7).ok()) << "call " << i;
  }
  // Affinity sends every call for (this client, command 7) to one replica.
  int pinned = -1;
  for (int r = 0; r < 4; ++r) {
    if (fix.vpool->replica_calls(r) > 0) {
      EXPECT_EQ(fix.vpool->replica_calls(r), 8u);
      EXPECT_EQ(pinned, -1) << "calls landed on two replicas";
      pinned = r;
    }
  }
  ASSERT_GE(pinned, 0);

  // Crash the pinned replica. The next call is still routed to it (nothing
  // observed yet), exhausts its retries, and marks it down; the rest fall to
  // its ring successor -- one single other replica, consistently.
  fix.net->CrashHost(fix.names[static_cast<size_t>(pinned)]);
  EXPECT_FALSE(fix.CallSync(7).ok());
  EXPECT_EQ(fix.vpool->down_marks(), 1u);
  EXPECT_FALSE(fix.vpool->replica_up(pinned));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fix.CallSync(7).ok()) << "failover call " << i;
  }
  EXPECT_EQ(fix.vpool->replica_calls(pinned), 9u);
  int successor = -1;
  for (int r = 0; r < 4; ++r) {
    if (r == pinned || fix.vpool->replica_calls(r) == 0) {
      continue;
    }
    EXPECT_EQ(fix.vpool->replica_calls(r), 4u);
    EXPECT_EQ(successor, -1) << "failover spread over two replicas";
    successor = r;
  }
  ASSERT_GE(successor, 0);
  AmoOracle::Report rep = fix.oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.failed, 1u);
}

// --- health: markdown, probation, recovery ------------------------------------

TEST(VpoolTest, MarkDownReadmitAndRecoverAfterRestart) {
  PoolOptions opt;
  opt.replicas = 2;
  opt.readmit_after = Msec(100);
  PoolFixture fix(opt);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fix.CallSync().ok());
  }
  EXPECT_EQ(fix.vpool->replica_calls(0), 2u);
  EXPECT_EQ(fix.vpool->replica_calls(1), 2u);

  // Crash replica 0: the next call routed to it exhausts CHANNEL's retries,
  // surfaces an error, and marks it down. The probation timer fires 100ms
  // later (inside the same run-to-quiescence), readmitting it.
  fix.net->CrashHost("s0");
  EXPECT_FALSE(fix.CallSync().ok());
  EXPECT_EQ(fix.vpool->down_marks(), 1u);
  EXPECT_EQ(fix.vpool->readmits(), 1u);
  EXPECT_TRUE(fix.vpool->replica_up(0));

  // Bring the host back; the restart hook rebuilt its server. Calls spread
  // over both replicas again and every one completes.
  fix.net->RestartHost("s0");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fix.CallSync().ok()) << "post-restart call " << i;
  }
  EXPECT_EQ(fix.vpool->replica_calls(0), 5u);  // 2 + the failed probe + 2
  EXPECT_EQ(fix.vpool->replica_calls(1), 4u);
  AmoOracle::Report rep = fix.oracle.Finish();
  EXPECT_TRUE(rep.clean()) << "double=" << rep.double_executions
                           << " silent=" << rep.silent;
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.completed, 8u);
}

TEST(VpoolTest, AllReplicasDownFailsFastWithUnreachable) {
  PoolOptions opt;
  opt.replicas = 2;
  opt.readmit_after = 0;
  PoolFixture fix(opt);

  fix.net->CrashHost("s0");
  fix.net->CrashHost("s1");
  // Each crashed replica costs one discovering call (async retry exhaustion).
  EXPECT_FALSE(fix.CallSync().ok());
  EXPECT_FALSE(fix.CallSync().ok());
  EXPECT_EQ(fix.vpool->down_marks(), 2u);

  // With the whole pool marked down the failure is synchronous and typed.
  Result<Message> r = fix.CallSync();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnreachable);
  EXPECT_EQ(fix.vpool->all_down_failures(), 1u);

  RunIn(*fix.ch->kernel, [&] {
    ControlArgs args;
    EXPECT_TRUE(fix.vpool->Control(ControlOp::kGetReplicasUp, args).ok());
    EXPECT_EQ(args.u64, 0u);
  });
}

TEST(VpoolTest, NonServiceOpensPassThroughUntouched) {
  PoolFixture fix(PoolOptions{});
  // Address a replica directly (not the virtual service): VPOOL must stay
  // transparent, so the pool counters never move.
  ASSERT_TRUE(fix.CallSyncTo(IpAddr(10, 0, 1, 2), kEcho).ok());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(fix.vpool->replica_calls(r), 0u);
  }
}

// --- open-loop generators -----------------------------------------------------

TEST(OpenLoopGenTest, OnOffArrivalsStayOutOfTheOffPhase) {
  PoolOptions opt;
  opt.replicas = 1;
  PoolFixture fix(opt);

  ArrivalSpec spec;
  std::string error;
  ASSERT_TRUE(ArrivalSpec::Parse(
      "onoff:rate=2000,off_rate=0,on=10ms,off=10ms,horizon=40ms,seed=5", &spec, &error))
      << error;
  OpenLoopGen gen(*fix.ch->kernel, *fix.client, fix.oracle, spec, kVip, kEcho, 64,
                  uint64_t{1} << 32);
  // Phase window aligned exactly to the first off phase [10ms, 20ms).
  gen.set_phase_window(Msec(10), Msec(20));
  gen.Start();
  fix.net->RunAll();

  EXPECT_GT(gen.phase(0).issued, 0u);   // on phase [0, 10ms)
  EXPECT_EQ(gen.phase(1).issued, 0u);   // off phase is silent at off_rate=0
  EXPECT_GT(gen.phase(2).issued, 0u);   // on phase [20ms, 30ms)
  EXPECT_EQ(gen.issued(), gen.phase(0).issued + gen.phase(2).issued);
  EXPECT_EQ(gen.completed(), gen.issued());
  EXPECT_TRUE(fix.oracle.Finish().clean());
}

TEST(OpenLoopGenTest, PoissonIssueStreamIsOpenLoopAndDeterministic) {
  ArrivalSpec spec;
  std::string error;
  ASSERT_TRUE(
      ArrivalSpec::Parse("poisson:rate=400,horizon=100ms,seed=11", &spec, &error))
      << error;

  auto run = [&](SimTime service_delay) {
    PoolOptions opt;
    opt.replicas = 1;
    opt.service_delays = {service_delay};
    PoolFixture fix(opt);
    OpenLoopGen gen(*fix.ch->kernel, *fix.client, fix.oracle, spec, kVip, kEcho, 64,
                    uint64_t{1} << 32);
    gen.Start();
    fix.net->RunAll();
    EXPECT_TRUE(fix.oracle.Finish().clean());
    return std::make_tuple(gen.issued(), gen.completed(), gen.rtt().sum(),
                           gen.last_done_at());
  };

  const auto a = run(0);
  const auto b = run(0);
  EXPECT_EQ(a, b);  // bit-identical rerun, RTTs included

  // Open loop: slowing the server must not change what was offered.
  const auto slow = run(Msec(5));
  EXPECT_EQ(std::get<0>(slow), std::get<0>(a));
  EXPECT_GT(std::get<2>(slow), std::get<2>(a));  // ...but RTTs grew
  EXPECT_GT(std::get<0>(a), 20u);  // ~40 expected arrivals at rate 400
}

// --- connection churn ---------------------------------------------------------

TEST(VpoolTest, FlushSessionsDropsIdleLowersOnly) {
  PoolOptions opt;
  opt.replicas = 2;
  PoolFixture fix(opt);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fix.CallSync().ok());
  }
  // Both cached lower sessions are idle: a flush drops both, and the next
  // call transparently re-opens toward its replica.
  RunIn(*fix.ch->kernel, [&] { fix.client->Evict(kVip, kEcho); });
  EXPECT_EQ(fix.vpool->session_flushes(), 2u);
  ASSERT_TRUE(fix.CallSync().ok());
  EXPECT_EQ(fix.oracle.Finish().completed, 5u);
}

// --- the id-paired client -----------------------------------------------------

// An RPC-shaped protocol whose sessions swallow every push, so calls stay
// outstanding until the test settles them through the error upcalls.
class SinkSession : public Session {
 public:
  SinkSession(Protocol& owner, Protocol* hlp) : Session(owner, hlp) {}

 protected:
  Status DoPush(Message& msg) override {
    (void)msg;
    return OkStatus();
  }
  Status DoPop(Message& msg, Session* lls) override {
    (void)lls;
    return DeliverUp(msg);
  }
};

class SinkProtocol : public Protocol {
 public:
  explicit SinkProtocol(Kernel& kernel) : Protocol(kernel, "sink", {}) {}
  std::vector<SessionRef> opened;

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override {
    (void)parts;
    opened.push_back(std::make_shared<SinkSession>(*this, &hlp));
    return opened.back();
  }
  Status DoDemux(Session* lls, Message& msg) override {
    (void)lls;
    (void)msg;
    return ErrStatus(StatusCode::kNotFound);
  }
};

TEST(ClusterClientTest, SessionErrorWithoutRequestFailsTheLowestOutstandingId) {
  EventQueue events;
  Kernel kernel{"client", events, HostEnv::kXKernel, IpAddr(10, 0, 1, 1), EthAddr::FromIndex(1)};
  SinkProtocol sink(kernel);
  ClusterClient client(kernel, &sink);
  std::vector<std::pair<uint64_t, StatusCode>> settled;
  auto call = [&](uint16_t command, uint64_t id) {
    client.Call(kVip, command, id, AmoOracle::MakeRequest(id, 8), [&settled, id](Result<Message> r) {
      settled.emplace_back(id, r.ok() ? StatusCode::kOk : r.status().code());
    });
  };
  RunIn(kernel, [&] {
    // Issued out of id order on one session, plus one call on a second
    // session (another command) with the lowest id of all.
    call(kEcho, 30);
    call(kEcho, 10);
    call(kEcho, 20);
    call(kEcho + 1, 5);
  });
  ASSERT_EQ(sink.opened.size(), 2u);
  Session& first = *sink.opened[0];
  RunIn(kernel, [&] { client.SessionError(first, ErrStatus(StatusCode::kTimeout), nullptr); });
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_EQ(settled[0], std::make_pair(uint64_t{10}, StatusCode::kTimeout));
  RunIn(kernel, [&] { client.SessionError(first, ErrStatus(StatusCode::kTimeout), nullptr); });
  ASSERT_EQ(settled.size(), 2u);
  EXPECT_EQ(settled[1].first, 20u);

  // A request-carrying error for an id no longer pending is a late reply.
  Message stale = AmoOracle::MakeRequest(10, 8);
  RunIn(kernel, [&] { client.SessionError(first, ErrStatus(StatusCode::kTimeout), &stale); });
  EXPECT_EQ(settled.size(), 2u);
  EXPECT_EQ(client.late_replies(), 1u);
  // A reply settles its own id, which leaves nothing for the fallback.
  Message reply = AmoOracle::MakeRequest(30, 8);
  RunIn(kernel, [&] { (void)first.Pop(reply, nullptr); });
  ASSERT_EQ(settled.size(), 3u);
  EXPECT_EQ(settled[2], std::make_pair(uint64_t{30}, StatusCode::kOk));
  RunIn(kernel, [&] { client.SessionError(first, ErrStatus(StatusCode::kTimeout), nullptr); });
  EXPECT_EQ(settled.size(), 3u);  // nothing left on the first session
  EXPECT_EQ(client.calls_completed(), 1u);
  EXPECT_EQ(client.calls_failed(), 2u);
}

// --- the datacenter measurement -----------------------------------------------

TEST(DatacenterTest, SubSaturationRoundRobinBalancesAndRoutesEverything) {
  DatacenterSpec spec;
  spec.client_segments = 2;
  spec.clients_per_segment = 2;
  spec.replicas = 4;
  std::string error;
  // Every client's round robin starts at replica 0, so the worst-case spread
  // is one call per client; ~90 calls per client keeps that under 10%.
  ASSERT_TRUE(ArrivalSpec::Parse("poisson:rate=150,horizon=600ms,seed=9", &spec.arrivals,
                                 &error))
      << error;
  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_EQ(r.success_ppm, 1000000u);  // sub-saturation: everything completes
  EXPECT_TRUE(r.oracle.clean());
  EXPECT_LE(r.share_spread_ppm, 100000u);  // round-robin balance within 10%
  EXPECT_EQ(r.down_marks, 0u);

  // Every call crossed the core router twice (request + reply), plus CHANNEL
  // control traffic; nothing was unroutable and nothing aged out.
  ASSERT_EQ(r.routers.size(), 1u);
  EXPECT_GE(r.routers[0].forwards, 2 * r.completed);
  EXPECT_EQ(r.routers[0].ttl_drops, 0u);
  EXPECT_EQ(r.routers[0].no_route_drops, 0u);
  EXPECT_EQ(r.segments.size(), 3u);  // server segment + 2 client segments
}

TEST(DatacenterTest, ConnectionChurnFlushesSessionsWithoutLosingCalls) {
  DatacenterSpec spec;
  spec.client_segments = 1;
  spec.clients_per_segment = 1;
  spec.replicas = 2;
  std::string error;
  // Rate chosen so inter-arrival gaps (~10ms) exceed the round trip: by the
  // time a churn point evicts the session, the previous call's lower session
  // is idle and actually flushable.
  ASSERT_TRUE(ArrivalSpec::Parse("poisson:rate=100,horizon=200ms,churn=10,seed=13",
                                 &spec.arrivals, &error))
      << error;
  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_GE(r.session_flushes, 1u);
  EXPECT_EQ(r.success_ppm, 1000000u);
  EXPECT_TRUE(r.oracle.clean());
}

}  // namespace
}  // namespace xk
