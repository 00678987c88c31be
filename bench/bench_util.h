// Shared benchmark harness: runs a named RPC configuration on the paper's
// testbed topology (two hosts, one isolated 10 Mbps Ethernet) and measures
// the three quantities every table reports:
//
//   Latency          round trip of a null call (null request, null reply)
//   Throughput       kbytes/sec for 16 KB requests with null replies
//   Incremental cost msec per additional 1 KB (slope of the 1k..16k sweep)
//
// Following the paper: all experiments are kernel-to-kernel, messages
// fragment into wire-sized packets, and sessions are cached (steady state).

#ifndef XK_BENCH_BENCH_UTIL_H_
#define XK_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/app/workload.h"
#include "src/proto/topology.h"
#include "src/sim/fault.h"
#include "src/stat/histogram.h"

namespace xk {

struct ConfigResult {
  double latency_ms = 0;        // null-call round trip
  double throughput_kbs = 0;    // at 16 KB requests
  double incr_ms_per_kb = 0;    // slope between 1 KB and 16 KB
  double client_cpu_ms = 0;     // CPU time per 16 KB call, client side
  double server_cpu_ms = 0;
  uint64_t events_fired = 0;    // host-side work: events across all instances
  Histogram latency_rtt;        // per-call round trips of the latency phase
  Histogram service;            // server-side service times, latency phase
};

struct RpcBench {
  // One fully-wired experiment instance.
  struct Instance {
    std::unique_ptr<Internet> net;
    HostStack* ch = nullptr;
    HostStack* sh = nullptr;
    RpcStack cstack, sstack;
    RpcClient* client = nullptr;
    RpcServer* server = nullptr;

    CallFn MakeCall() {
      return [this](Message args, std::function<void(Result<Message>)> done) {
        client->Call(sh->kernel->ip_addr(), 1, std::move(args), std::move(done));
      };
    }
  };

  static Instance MakeInstance(std::string_view spec, HostEnv env = HostEnv::kXKernel) {
    Instance in;
    in.net = Internet::TwoHosts(env);
    in.ch = &in.net->host("client");
    in.sh = &in.net->host("server");
    in.cstack = BuildStack(*in.ch, spec);
    in.sstack = BuildStack(*in.sh, spec);
    in.ch->kernel->RunTask(in.net->events().now(), [&] {
      in.client = &in.ch->kernel->Emplace<RpcClient>(*in.ch->kernel, in.cstack.top);
    });
    in.sh->kernel->RunTask(in.net->events().now(), [&] {
      in.server = &in.sh->kernel->Emplace<RpcServer>(*in.sh->kernel, in.sstack.top);
      // Null reply regardless of request size (the paper's throughput test).
      (void)in.server->Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
    return in;
  }

  // Measures the standard three columns for `spec` under `env`.
  static ConfigResult Measure(std::string_view spec, HostEnv env = HostEnv::kXKernel) {
    ConfigResult result;

    {
      Instance in = MakeInstance(spec, env);
      LatencyResult lat = RpcWorkload::MeasureLatency(*in.net, *in.ch->kernel, in.MakeCall(), 64);
      result.latency_ms = ToMsec(lat.per_call);
      result.latency_rtt = lat.rtt;
      result.service = in.server->service_histogram();
      result.events_fired += in.net->events_fired();
    }
    {
      Instance in = MakeInstance(spec, env);
      ThroughputResult t16 = RpcWorkload::MeasureThroughput(
          *in.net, *in.ch->kernel, *in.sh->kernel, in.MakeCall(), 16 * 1024, 16);
      result.throughput_kbs = t16.kbytes_per_sec;
      result.client_cpu_ms = ToMsec(t16.client_cpu);
      result.server_cpu_ms = ToMsec(t16.server_cpu);
      result.events_fired += in.net->events_fired();
    }
    {
      Instance in = MakeInstance(spec, env);
      ThroughputResult t1 = RpcWorkload::MeasureThroughput(*in.net, *in.ch->kernel,
                                                           *in.sh->kernel, in.MakeCall(),
                                                           1 * 1024, 16);
      Instance in2 = MakeInstance(spec, env);
      ThroughputResult t16 = RpcWorkload::MeasureThroughput(
          *in2.net, *in2.ch->kernel, *in2.sh->kernel, in2.MakeCall(), 16 * 1024, 16);
      const double ms1 = ToMsec(t1.elapsed) / t1.completed;
      const double ms16 = ToMsec(t16.elapsed) / t16.completed;
      result.incr_ms_per_kb = (ms16 - ms1) / 15.0;
      result.events_fired += in.net->events_fired() + in2.net->events_fired();
    }
    return result;
  }
};

// --- shared experiment setups --------------------------------------------------
//
// The configurations bench_suite runs as jobs; the shape tests in
// tests/calibration_test.cc call the same helpers.

// An echo experiment over a stack spec driven by EchoAnchors (Table III's
// partial stacks: "vip", "fragment/vip", "channel/fragment/vip").
struct EchoExperiment {
  std::unique_ptr<Internet> net;
  HostStack* ch = nullptr;
  HostStack* sh = nullptr;
  RpcStack cstack, sstack;
  EchoAnchor* client = nullptr;
  EchoAnchor* server = nullptr;
  SessionRef sess;

  CallFn MakeCall() {
    return [this](Message args, std::function<void(Result<Message>)> done) {
      client->Send(sess, std::move(args), std::move(done));
    };
  }
};

inline EchoExperiment MakeEchoExperiment(std::string_view spec, bool null_replies = false,
                                         HostEnv env = HostEnv::kXKernel) {
  // The spec is a literal in code: an echo set-up that fails is a bug.
  auto check = [spec](const char* what, Status s) {
    if (!s.ok()) {
      std::fprintf(stderr, "MakeEchoExperiment(\"%.*s\"): %s failed: %s\n",
                   static_cast<int>(spec.size()), spec.data(), what, StatusCodeName(s.code()));
      std::abort();
    }
  };
  EchoExperiment e;
  e.net = Internet::TwoHosts(env);
  e.ch = &e.net->host("client");
  e.sh = &e.net->host("server");
  e.cstack = BuildStack(*e.ch, spec);
  e.sstack = BuildStack(*e.sh, spec);
  e.ch->kernel->RunTask(e.net->events().now(), [&] {
    e.client = &e.ch->kernel->Emplace<EchoAnchor>(*e.ch->kernel, /*server_role=*/false);
  });
  e.sh->kernel->RunTask(e.net->events().now(), [&] {
    e.server = &e.sh->kernel->Emplace<EchoAnchor>(*e.sh->kernel, /*server_role=*/true);
    if (null_replies) {
      e.server->set_echo_limit(0);
    }
    check("EnableEcho", EnableEcho(e.sstack, *e.server));
  });
  e.ch->kernel->RunTask(e.net->events().now(), [&] {
    Result<SessionRef> r = OpenEchoSession(e.cstack, *e.client, e.sh->kernel->ip_addr());
    check("OpenEchoSession", r.status());
    e.sess = *r;
  });
  return e;
}

struct PartialLatency {
  double ms = 0;
  uint64_t events_fired = 0;
  Histogram rtt;
};

// Null round trip through a partial stack (Table III rows 1-3 and the
// header-alloc ablation's base/channel measurements).
inline PartialLatency MeasurePartialLatency(std::string_view spec,
                                            HostEnv env = HostEnv::kXKernel) {
  EchoExperiment e = MakeEchoExperiment(spec, /*null_replies=*/false, env);
  LatencyResult lat = RpcWorkload::MeasureLatency(*e.net, *e.ch->kernel, e.MakeCall(), 64);
  return PartialLatency{ToMsec(lat.per_call), e.net->events_fired(), lat.rtt};
}

struct FragmentThroughput {
  double kbytes_per_sec = 0;
  uint64_t events_fired = 0;
};

// FRAGMENT standalone throughput: 16 KB messages, null (0-byte) echoes.
inline FragmentThroughput MeasureFragmentThroughput() {
  EchoExperiment e = MakeEchoExperiment("fragment/vip", /*null_replies=*/true);
  ThroughputResult t = RpcWorkload::MeasureThroughput(*e.net, *e.ch->kernel, *e.sh->kernel,
                                                      e.MakeCall(), 16 * 1024, 16);
  return FragmentThroughput{t.kbytes_per_sec, e.net->events_fired()};
}

struct SweepSeries {
  std::vector<double> per_call_ms;  // 1 KB .. 16 KB requests, 1 KB steps
  uint64_t events_fired = 0;
  Histogram rtt;
};

// The 1k..16k request-size series behind every "Incremental Cost" column:
// per-call time for 8 calls at each size, each size on a fresh instance.
inline SweepSeries MeasureSweep(std::string_view spec, HostEnv env = HostEnv::kXKernel) {
  SweepSeries out;
  for (size_t kb = 1; kb <= 16; ++kb) {
    RpcBench::Instance in = RpcBench::MakeInstance(spec, env);
    ThroughputResult t = RpcWorkload::MeasureThroughput(*in.net, *in.ch->kernel, *in.sh->kernel,
                                                        in.MakeCall(), kb * 1024, 8);
    out.per_call_ms.push_back(ToMsec(t.elapsed) / t.completed);
    out.events_fired += in.net->events_fired();
    out.rtt.Merge(t.rtt);
  }
  return out;
}

struct UdpEcho {
  double ms = 0;
  uint64_t events_fired = 0;
  Histogram rtt;
};

// Section 1's user-to-user UDP/IP echo: each send and receive pays a
// user/kernel boundary crossing.
inline UdpEcho MeasureUdpEcho(HostEnv env) {
  EchoExperiment e = MakeEchoExperiment("udp/ip", /*null_replies=*/false, env);
  e.client->set_app_cost(e.ch->kernel->costs().user_kernel_cross);
  e.server->set_app_cost(2 * e.sh->kernel->costs().user_kernel_cross);  // in + out
  LatencyResult lat = RpcWorkload::MeasureLatency(*e.net, *e.ch->kernel, e.MakeCall(), 64);
  return UdpEcho{ToMsec(lat.per_call), e.net->events_fired(), lat.rtt};
}

struct ColdWarmResult {
  double first_ms = 0;
  double steady_ms = 0;
  uint64_t events_fired = 0;
};

// Session-caching ablation: the first call on a freshly configured stack
// (which establishes session state at every level; ARP is pre-warmed) versus
// the steady-state call that reuses all of it.
inline ColdWarmResult MeasureColdWarm(std::string_view spec) {
  RpcBench::Instance in = RpcBench::MakeInstance(spec);
  // First call: all session state is established on demand.
  LatencyResult first = RpcWorkload::MeasureLatency(*in.net, *in.ch->kernel, in.MakeCall(), 1);
  // Steady state: everything cached.
  LatencyResult steady = RpcWorkload::MeasureLatency(*in.net, *in.ch->kernel, in.MakeCall(), 64);
  return ColdWarmResult{ToMsec(first.per_call), ToMsec(steady.per_call), in.net->events_fired()};
}

// Per-segment link statistics for one finished run, read from the segment's
// getters.
struct SegmentStat {
  int segment = 0;
  uint64_t frames = 0;
  uint64_t bytes = 0;
  int64_t busy_ns = 0;
  uint64_t utilization_ppm = 0;  // busy / elapsed, parts per million
  uint64_t queued_frames = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t mean_queue_depth_x1000 = 0;
  int64_t wait_p50_ns = 0;
  int64_t wait_p99_ns = 0;
  int64_t wait_p999_ns = 0;
  int64_t wait_max_ns = 0;
  uint64_t frames_dropped = 0;
};

struct ManyPairsBench {
  double agg_kbytes_per_sec = 0;
  double elapsed_ms = 0;  // simulated time, first issue to last completion
  int completed = 0;
  int failed = 0;
  SimTime sum_done_at = 0;  // determinism probe: sum of per-pair finish times
  uint64_t events_fired = 0;
  Histogram rtt;      // per-call round trips, merged across pairs
  Histogram service;  // server-side service times, merged across pairs
  std::vector<SegmentStat> segments;
  // IP forwarding totals summed over every host. The pairs here share a
  // segment, so these stay zero -- the point is that the same accounting the
  // datacenter jobs gate on is observable (and observed zero) off the routed
  // path too.
  uint64_t ip_forwards = 0;
  uint64_t ip_ttl_drops = 0;
  uint64_t ip_no_route_drops = 0;
};

// The many-host workload: `pairs` independent client/server pairs, each on
// its own segment, all driving `iters` sequential `bytes`-byte L_RPC calls
// concurrently in ONE simulation. The segments use a long propagation delay
// (a campus internetwork rather than one machine-room Ethernet); the workload
// is otherwise the standard layered L_RPC stack. `drop_rate` applies a
// uniform random drop to every segment (after ARP warm-up), driving the
// retransmission paths that stretch the latency tail.
inline ManyPairsBench MeasureManyPairsBench(int pairs, size_t bytes, int iters,
                                            double drop_rate = 0.0) {
  auto net = std::make_unique<Internet>(HostEnv::kXKernel, 1);
  WireModel wire;
  wire.propagation = Usec(2000);
  struct Pair {
    HostStack* ch = nullptr;
    HostStack* sh = nullptr;
    RpcStack cstack, sstack;
    RpcClient* client = nullptr;
    RpcServer* server = nullptr;
  };
  std::vector<Pair> ps(static_cast<size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    const int seg = net->AddSegment(wire);
    const uint8_t b = static_cast<uint8_t>(p + 1);
    ps[p].ch = &net->AddHost("c" + std::to_string(p), seg, IpAddr(10, 0, b, 1));
    ps[p].sh = &net->AddHost("s" + std::to_string(p), seg, IpAddr(10, 0, b, 2));
  }
  net->WarmArp();
  if (drop_rate > 0.0) {
    for (size_t s = 0; s < net->num_segments(); ++s) {
      net->segment(static_cast<int>(s)).set_drop_rate(drop_rate);
    }
  }
  std::vector<Kernel*> clients;
  std::vector<CallFn> calls;
  for (Pair& pr : ps) {
    pr.cstack = BuildStack(*pr.ch, kLRpcVip);
    pr.sstack = BuildStack(*pr.sh, kLRpcVip);
    pr.ch->kernel->RunTask(net->events().now(), [&] {
      pr.client = &pr.ch->kernel->Emplace<RpcClient>(*pr.ch->kernel, pr.cstack.top);
    });
    pr.sh->kernel->RunTask(net->events().now(), [&] {
      pr.server = &pr.sh->kernel->Emplace<RpcServer>(*pr.sh->kernel, pr.sstack.top);
      (void)pr.server->Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
    });
    clients.push_back(pr.ch->kernel);
    const IpAddr server_ip = pr.sh->kernel->ip_addr();
    RpcClient* client = pr.client;
    calls.push_back([client, server_ip](Message args, std::function<void(Result<Message>)> done) {
      client->Call(server_ip, 1, std::move(args), std::move(done));
    });
  }
  ManyPairsResult r = RpcWorkload::MeasureManyPairs(*net, clients, calls, bytes, iters);
  ManyPairsBench out;
  out.agg_kbytes_per_sec = r.agg_kbytes_per_sec;
  out.elapsed_ms = ToMsec(r.elapsed);
  out.completed = r.completed;
  out.failed = r.failed;
  out.sum_done_at = r.sum_done_at;
  out.events_fired = net->events_fired();
  out.rtt = r.rtt;
  for (const Pair& pr : ps) {
    out.service.Merge(pr.server->service_histogram());
    for (const HostStack* h : {pr.ch, pr.sh}) {
      const IpProtocol::Stats& ip = h->ip->stats();
      out.ip_forwards += ip.forwards;
      out.ip_ttl_drops += ip.ttl_drops;
      out.ip_no_route_drops += ip.no_route_drops;
    }
  }
  const SimTime elapsed_sim = net->events().now();
  for (size_t s = 0; s < net->num_segments(); ++s) {
    const EthernetSegment& seg = net->segment(static_cast<int>(s));
    SegmentStat st;
    st.segment = static_cast<int>(s);
    st.frames = seg.frames_sent();
    st.bytes = seg.bytes_sent();
    st.busy_ns = seg.bus_busy_time();
    st.utilization_ppm = elapsed_sim > 0
                             ? static_cast<uint64_t>(seg.bus_busy_time()) * 1000000u /
                                   static_cast<uint64_t>(elapsed_sim)
                             : 0;
    st.queued_frames = seg.queued_frames();
    st.peak_queue_depth = seg.peak_queue_depth();
    st.mean_queue_depth_x1000 = seg.mean_queue_depth_x1000();
    st.wait_p50_ns = seg.queue_wait().P50();
    st.wait_p99_ns = seg.queue_wait().P99();
    st.wait_p999_ns = seg.queue_wait().P999();
    st.wait_max_ns = seg.queue_wait().max();
    st.frames_dropped = seg.frames_dropped();
    out.segments.push_back(st);
  }
  return out;
}

// --- chaos campaigns -----------------------------------------------------------

// Everything a fault campaign reports: availability from the workload's point
// of view, the at-most-once oracle's verdict, and the recovery machinery's
// counters. All simulated quantities -- byte-stable run to run.
struct ChaosBench {
  ChaosResult run;
  AmoOracle::Report oracle;
  uint64_t events_fired = 0;
  uint64_t boot_resets = 0;      // server reboots the client's CHANNEL observed
  uint64_t retransmissions = 0;  // client CHANNEL
  uint64_t timeouts = 0;
  uint64_t down_drops = 0;    // frames that died at a crashed host's station
  uint64_t fault_drops = 0;   // frames the plan dropped on the wire
};

// Runs the oracle-checked sequential chaos workload over L_RPC-VIP under
// `plan`. The server's echo handler records executions in the oracle, and the
// restart hook reinstalls it after a scheduled crash, so campaigns that kill
// the server mid-call still account for every execution.
inline ChaosBench MeasureChaosCampaign(const FaultPlan& plan, const ChaosSpec& spec,
                                       bool adaptive_rto = false) {
  AmoOracle oracle;
  RpcBench::Instance in = RpcBench::MakeInstance(kLRpcVip);
  in.sh->kernel->RunTask(in.net->events().now(), [&] {
    (void)in.server->Export(RpcServer::kAny, oracle.WrapEcho(in.sh->kernel));
  });
  if (adaptive_rto) {
    in.cstack.Get<ChannelProtocol>()->set_adaptive_timeout(true);
    in.sstack.Get<ChannelProtocol>()->set_adaptive_timeout(true);
  }
  in.net->set_restart_hook("server", [&in, &oracle, adaptive_rto](HostStack& h) {
    in.sstack = BuildStack(h, kLRpcVip);
    in.server = &h.kernel->Emplace<RpcServer>(*h.kernel, in.sstack.top);
    (void)in.server->Export(RpcServer::kAny, oracle.WrapEcho(h.kernel));
    if (adaptive_rto) {
      in.sstack.Get<ChannelProtocol>()->set_adaptive_timeout(true);
    }
  });

  FaultEngine faults(*in.net, plan);
  ChaosBench out;
  out.run = RpcWorkload::RunChaos(*in.net, *in.ch->kernel, in.MakeCall(), oracle, spec);
  out.oracle = oracle.Finish();
  out.events_fired = in.net->events_fired();
  const ChannelProtocol::Stats& st = in.cstack.Get<ChannelProtocol>()->stats();
  out.boot_resets = st.boot_resets;
  out.retransmissions = st.retransmissions;
  out.timeouts = st.timeouts;
  for (size_t s = 0; s < in.net->num_segments(); ++s) {
    out.down_drops += in.net->segment(static_cast<int>(s)).down_drops();
    out.fault_drops += in.net->segment(static_cast<int>(s)).fault_drops();
  }
  return out;
}

}  // namespace xk

#endif  // XK_BENCH_BENCH_UTIL_H_
