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

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/app/workload.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "src/sim/fault.h"
#include "src/stat/histogram.h"
#include "src/stat/timeseries.h"
#include "src/trace/pcap.h"
#include "src/trace/trace.h"

namespace xk {

// Optional observability for the serial bench binaries: `--trace=FILE` and
// `--pcap=FILE` install thread-default observers that every Internet the
// benchmark builds picks up; the files are written when the benchmark exits.
// Tracing charges zero simulated cost, so a traced run reports exactly the
// numbers an untraced run does.
class BenchObservers {
 public:
  BenchObservers(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--trace=", 8) == 0) {
        trace_path_ = a + 8;
      } else if (std::strncmp(a, "--pcap=", 7) == 0) {
        pcap_path_ = a + 7;
      } else if (std::strncmp(a, "--stats=", 8) == 0) {
        stats_path_ = a + 8;
      }
    }
    if (!trace_path_.empty()) {
      sink_ = std::make_unique<TraceSink>();
      TraceSink::set_thread_default(sink_.get());
    }
    if (!pcap_path_.empty()) {
      capture_ = std::make_unique<PacketCapture>();
      PacketCapture::set_thread_default(capture_.get());
    }
    if (!stats_path_.empty()) {
      sampler_ = std::make_unique<StatSampler>();
      StatSampler::set_thread_default(sampler_.get());
    }
  }

  BenchObservers(const BenchObservers&) = delete;
  BenchObservers& operator=(const BenchObservers&) = delete;

  ~BenchObservers() {
    if (sink_ != nullptr) {
      TraceSink::set_thread_default(nullptr);
      if (!sink_->WriteFile(trace_path_)) {
        std::fprintf(stderr, "bench: failed to write trace %s\n", trace_path_.c_str());
      }
    }
    if (capture_ != nullptr) {
      PacketCapture::set_thread_default(nullptr);
      if (!capture_->WriteFile(pcap_path_)) {
        std::fprintf(stderr, "bench: failed to write pcap %s\n", pcap_path_.c_str());
      }
    }
    if (sampler_ != nullptr) {
      StatSampler::set_thread_default(nullptr);
      if (!sampler_->WriteFile(stats_path_)) {
        std::fprintf(stderr, "bench: failed to write stats %s\n", stats_path_.c_str());
      }
    }
  }

 private:
  std::string trace_path_;
  std::string pcap_path_;
  std::string stats_path_;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<PacketCapture> capture_;
  std::unique_ptr<StatSampler> sampler_;
};

struct ConfigResult {
  std::string name;
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
  using Builder = std::function<RpcStack(HostStack&)>;

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

  static Instance MakeInstance(const Builder& builder, HostEnv env = HostEnv::kXKernel) {
    Instance in;
    in.net = Internet::TwoHosts(env);
    in.ch = &in.net->host("client");
    in.sh = &in.net->host("server");
    in.cstack = builder(*in.ch);
    in.sstack = builder(*in.sh);
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

  // Measures the standard three columns for `builder` under `env`.
  static ConfigResult Measure(const std::string& name, const Builder& builder,
                              HostEnv env = HostEnv::kXKernel) {
    ConfigResult result;
    result.name = name;

    {
      Instance in = MakeInstance(builder, env);
      LatencyResult lat = RpcWorkload::MeasureLatency(*in.net, *in.ch->kernel, in.MakeCall(), 64);
      result.latency_ms = ToMsec(lat.per_call);
      result.latency_rtt = lat.rtt;
      result.service = in.server->service_histogram();
      result.events_fired += in.net->events_fired();
    }
    {
      Instance in = MakeInstance(builder, env);
      ThroughputResult t16 = RpcWorkload::MeasureThroughput(
          *in.net, *in.ch->kernel, *in.sh->kernel, in.MakeCall(), 16 * 1024, 16);
      result.throughput_kbs = t16.kbytes_per_sec;
      result.client_cpu_ms = ToMsec(t16.client_cpu);
      result.server_cpu_ms = ToMsec(t16.server_cpu);
      result.events_fired += in.net->events_fired();
    }
    {
      Instance in = MakeInstance(builder, env);
      ThroughputResult t1 = RpcWorkload::MeasureThroughput(*in.net, *in.ch->kernel,
                                                           *in.sh->kernel, in.MakeCall(),
                                                           1 * 1024, 16);
      Instance in2 = MakeInstance(builder, env);
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
// These are used both by the per-table serial binaries and by bench_suite, so
// the two report identical simulated numbers by construction.

// An echo experiment over a partial RPC stack driven by EchoAnchors
// (layers: 0 = VIP, 1 = FRAGMENT-VIP, 2 = CHANNEL-FRAGMENT-VIP).
struct EchoExperiment {
  std::unique_ptr<Internet> net;
  HostStack* ch = nullptr;
  HostStack* sh = nullptr;
  RpcStack cstack, sstack;
  EchoAnchor* client = nullptr;
  SessionRef sess;

  CallFn MakeCall() {
    return [this](Message args, std::function<void(Result<Message>)> done) {
      client->Send(sess, std::move(args), std::move(done));
    };
  }
};

inline EchoExperiment MakeEchoExperiment(int layers, bool null_replies = false) {
  EchoExperiment e;
  e.net = Internet::TwoHosts();
  e.ch = &e.net->host("client");
  e.sh = &e.net->host("server");
  e.cstack = BuildPartial(*e.ch, layers);
  e.sstack = BuildPartial(*e.sh, layers);
  e.ch->kernel->RunTask(e.net->events().now(), [&] {
    e.client = &e.ch->kernel->Emplace<EchoAnchor>(*e.ch->kernel, /*server_role=*/false);
  });
  e.sh->kernel->RunTask(e.net->events().now(), [&] {
    auto& server = e.sh->kernel->Emplace<EchoAnchor>(*e.sh->kernel, /*server_role=*/true);
    if (null_replies) {
      server.set_echo_limit(0);
    }
    (void)EnableEcho(e.sstack, server);
  });
  e.ch->kernel->RunTask(e.net->events().now(), [&] {
    Result<SessionRef> r = OpenEchoSession(e.cstack, *e.client, e.sh->kernel->ip_addr());
    if (r.ok()) {
      e.sess = *r;
    }
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
inline PartialLatency MeasurePartialLatency(int layers) {
  EchoExperiment e = MakeEchoExperiment(layers);
  LatencyResult lat = RpcWorkload::MeasureLatency(*e.net, *e.ch->kernel, e.MakeCall(), 64);
  return PartialLatency{ToMsec(lat.per_call), e.net->events_fired(), lat.rtt};
}

struct FragmentThroughput {
  double kbytes_per_sec = 0;
  uint64_t events_fired = 0;
  Histogram rtt;
};

// FRAGMENT standalone throughput: 16 KB messages, null (0-byte) echoes.
inline FragmentThroughput MeasureFragmentThroughput() {
  EchoExperiment e = MakeEchoExperiment(/*layers=*/1, /*null_replies=*/true);
  ThroughputResult t = RpcWorkload::MeasureThroughput(*e.net, *e.ch->kernel, *e.sh->kernel,
                                                      e.MakeCall(), 16 * 1024, 16);
  return FragmentThroughput{t.kbytes_per_sec, e.net->events_fired(), t.rtt};
}

struct UdpEcho {
  double ms = 0;
  uint64_t events_fired = 0;
  Histogram rtt;
};

// Section 1's user-to-user UDP/IP echo: each send and receive pays a
// user/kernel boundary crossing.
inline UdpEcho MeasureUdpEcho(HostEnv env) {
  auto net = Internet::TwoHosts(env);
  auto& ch = net->host("client");
  auto& sh = net->host("server");
  UdpProtocol* cudp = BuildUdp(ch);
  UdpProtocol* sudp = BuildUdp(sh);

  EchoAnchor* client = nullptr;
  ch.kernel->RunTask(net->events().now(), [&] {
    client = &ch.kernel->Emplace<EchoAnchor>(*ch.kernel, /*server_role=*/false);
    // User process: each send/receive crosses the user/kernel boundary.
    client->set_app_cost(ch.kernel->costs().user_kernel_cross);
  });
  sh.kernel->RunTask(net->events().now(), [&] {
    auto& server = sh.kernel->Emplace<EchoAnchor>(*sh.kernel, /*server_role=*/true);
    server.set_app_cost(2 * sh.kernel->costs().user_kernel_cross);  // in + out
    ParticipantSet enable;
    enable.local.port = 7;
    (void)sudp->OpenEnable(server, enable);
  });
  SessionRef sess;
  ch.kernel->RunTask(net->events().now(), [&] {
    ParticipantSet parts;
    parts.local.port = 1234;
    parts.peer.host = sh.kernel->ip_addr();
    parts.peer.port = 7;
    Result<SessionRef> r = cudp->Open(*client, parts);
    if (r.ok()) {
      sess = *r;
    }
  });
  CallFn call = [&](Message args, std::function<void(Result<Message>)> done) {
    client->Send(sess, std::move(args), std::move(done));
  };
  LatencyResult lat = RpcWorkload::MeasureLatency(*net, *ch.kernel, call, 64);
  return UdpEcho{ToMsec(lat.per_call), net->events_fired(), lat.rtt};
}

struct ColdWarmResult {
  double first_ms = 0;
  double steady_ms = 0;
  uint64_t events_fired = 0;
  Histogram rtt;  // first + steady calls combined
};

// Session-caching ablation: the first call on a freshly configured stack
// (which establishes session state at every level; ARP is pre-warmed) versus
// the steady-state call that reuses all of it.
inline ColdWarmResult MeasureColdWarm(const RpcBench::Builder& builder) {
  auto net = std::make_unique<Internet>();
  const int seg = net->AddSegment();
  net->AddHost("client", seg, IpAddr(10, 0, 1, 1));
  net->AddHost("server", seg, IpAddr(10, 0, 1, 2));
  net->WarmArp();  // address resolution warm; session state cold
  auto& ch = net->host("client");
  auto& sh = net->host("server");
  RpcStack cstack = builder(ch);
  RpcStack sstack = builder(sh);
  RpcClient* client = nullptr;
  ch.kernel->RunTask(net->events().now(),
                     [&] { client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, cstack.top); });
  sh.kernel->RunTask(net->events().now(), [&] {
    auto& server = sh.kernel->Emplace<RpcServer>(*sh.kernel, sstack.top);
    (void)server.Export(RpcServer::kAny, [](uint16_t, Message&) { return Message(); });
  });

  CallFn call = [&](Message args, std::function<void(Result<Message>)> done) {
    client->Call(sh.kernel->ip_addr(), 1, std::move(args), std::move(done));
  };
  // First call: all session state is established on demand.
  LatencyResult first = RpcWorkload::MeasureLatency(*net, *ch.kernel, call, 1);
  // Steady state: everything cached.
  LatencyResult steady = RpcWorkload::MeasureLatency(*net, *ch.kernel, call, 64);
  ColdWarmResult out{ToMsec(first.per_call), ToMsec(steady.per_call), net->events_fired(),
                     first.rtt};
  out.rtt.Merge(steady.rtt);
  return out;
}

// Per-segment link statistics for one finished run (see Internet::CountersJson
// for the same quantities as JSON).
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
    pr.cstack = BuildLRpc(*pr.ch, Delivery::kVip);
    pr.sstack = BuildLRpc(*pr.sh, Delivery::kVip);
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

// --- hotloop microbench --------------------------------------------------------

// Engine hot-path microbench: pure event churn (self-rearming timer chains on
// every host, nothing but heap push/pop/dispatch) plus frame-burst delivery
// (one host broadcasting back-to-back frames; each broadcast lands on every
// other station at the same instant, the case batched delivery folds into one
// heap event, and every receiver echoes, contending on the bus). All counts
// are simulated and deterministic; events_per_sec is the host-side rate
// over RunAll and is what the hot-path work is measured by.
struct HotLoopBench {
  uint64_t events_fired = 0;      // deterministic
  uint64_t timer_pops = 0;        // deterministic: churn chain ticks executed
  uint64_t frames_delivered = 0;  // deterministic: receiver-side frames in
  uint64_t echoes = 0;            // deterministic: burst frames echoed back
  double elapsed_sim_ms = 0;      // deterministic
  double wall_ms = 0;             // host: RunAll wall clock
  double events_per_sec = 0;      // host: events_fired / wall seconds
};

namespace hotloop_internal {

// Timer chains re-arm through a plain function taking a stable pointer, so
// nothing captures itself and nothing leaks (the ASan suite pass runs this).
struct Chain {
  Kernel* kernel = nullptr;
  int remaining = 0;
  SimTime delay = 0;
  uint64_t* pops = nullptr;  // per-host counter
};

inline void Tick(Chain* c) {
  ++*c->pops;
  if (--c->remaining > 0) {
    c->kernel->SetTimer(c->delay, [c] { Tick(c); });
  }
}

struct Burst {
  Kernel* kernel = nullptr;
  EchoAnchor* anchor = nullptr;
  SessionRef sess;
  int remaining = 0;
  int size = 0;
  size_t bytes = 0;
  SimTime gap = 0;
};

inline void Fire(Burst* b) {
  for (int i = 0; i < b->size; ++i) {
    b->anchor->Send(b->sess, Message(b->bytes), [](Result<Message>) {});
  }
  if (--b->remaining > 0) {
    b->kernel->SetTimer(b->gap, [b] { Fire(b); });
  }
}

}  // namespace hotloop_internal

inline HotLoopBench MeasureHotLoop(int hosts = 8, int chains_per_host = 4,
                                   int pops_per_chain = 6000, int bursts = 256,
                                   int burst_size = 4) {
  // A private ETH type below the VIP range: the bursts ride raw ETH sessions
  // with no upper stack, so the measurement is the engine, not the protocols.
  constexpr EthType kHotLoopType = 0x3900;
  auto net = std::make_unique<Internet>();
  const int seg = net->AddSegment();
  std::vector<HostStack*> hs;
  for (int h = 0; h < hosts; ++h) {
    hs.push_back(&net->AddHost("h" + std::to_string(h), seg,
                               IpAddr(10, 0, 9, static_cast<uint8_t>(h + 1))));
  }
  net->WarmArp();

  // Receivers: echo servers parked directly on ETH. The sender never enables
  // the type, so the echoes die quietly at its demux -- the point is the
  // delivery and bus-contention churn, not a request/reply protocol.
  std::vector<EchoAnchor*> servers;
  for (int h = 1; h < hosts; ++h) {
    HostStack* s = hs[h];
    s->kernel->RunTask(net->events().now(), [&] {
      auto& srv = s->kernel->Emplace<EchoAnchor>(*s->kernel, /*server_role=*/true);
      srv.set_app_cost(0);
      ParticipantSet enable;
      enable.local.eth_type = kHotLoopType;
      (void)s->eth->OpenEnable(srv, enable);
      servers.push_back(&srv);
    });
  }
  hotloop_internal::Burst burst;
  hs[0]->kernel->RunTask(net->events().now(), [&] {
    auto& sender = hs[0]->kernel->Emplace<EchoAnchor>(*hs[0]->kernel, /*server_role=*/false);
    sender.set_app_cost(0);
    ParticipantSet parts;
    parts.local.eth_type = kHotLoopType;
    parts.peer.eth = EthAddr::Broadcast();
    Result<SessionRef> r = hs[0]->eth->Open(sender, parts);
    burst.kernel = hs[0]->kernel;
    burst.anchor = &sender;
    burst.sess = r.ok() ? *r : nullptr;
    burst.remaining = bursts;
    burst.size = burst_size;
    burst.bytes = 128;
    burst.gap = Usec(400);
  });

  std::vector<uint64_t> pops(static_cast<size_t>(hosts), 0);
  std::vector<hotloop_internal::Chain> chains(
      static_cast<size_t>(hosts) * static_cast<size_t>(chains_per_host));
  for (int h = 0; h < hosts; ++h) {
    for (int c = 0; c < chains_per_host; ++c) {
      hotloop_internal::Chain& ch = chains[static_cast<size_t>(h * chains_per_host + c)];
      ch.kernel = hs[h]->kernel;
      ch.remaining = pops_per_chain;
      // Co-prime-ish stagger so the heap sees interleaved, not lock-step, work.
      ch.delay = Usec(5 + (h * chains_per_host + c) % 7);
      ch.pops = &pops[static_cast<size_t>(h)];
      hs[h]->kernel->RunTask(net->events().now(), [&ch] {
        ch.kernel->SetTimer(ch.delay, [&ch] { hotloop_internal::Tick(&ch); });
      });
    }
  }
  if (burst.sess != nullptr) {
    hs[0]->kernel->RunTask(net->events().now(),
                           [&burst] { hotloop_internal::Fire(&burst); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  net->RunAll();
  const auto t1 = std::chrono::steady_clock::now();

  HotLoopBench out;
  out.events_fired = net->events_fired();
  for (uint64_t p : pops) {
    out.timer_pops += p;
  }
  for (int h = 1; h < hosts; ++h) {
    out.frames_delivered += hs[h]->eth->frames_in();
  }
  for (const EchoAnchor* srv : servers) {
    out.echoes += srv->echoes();
  }
  out.elapsed_sim_ms = ToMsec(net->events().now());
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.events_per_sec =
      out.wall_ms > 0 ? static_cast<double>(out.events_fired) / (out.wall_ms / 1000.0) : 0;
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
  auto builder = [](HostStack& h) { return BuildLRpc(h, Delivery::kVip); };
  RpcBench::Instance in = RpcBench::MakeInstance(builder);
  in.sh->kernel->RunTask(in.net->events().now(), [&] {
    (void)in.server->Export(RpcServer::kAny, oracle.WrapEcho(in.sh->kernel));
  });
  if (adaptive_rto) {
    in.cstack.channel->set_adaptive_timeout(true);
    in.sstack.channel->set_adaptive_timeout(true);
  }
  in.net->set_restart_hook("server", [&in, builder, &oracle, adaptive_rto](HostStack& h) {
    in.sstack = builder(h);
    in.server = &h.kernel->Emplace<RpcServer>(*h.kernel, in.sstack.top);
    (void)in.server->Export(RpcServer::kAny, oracle.WrapEcho(h.kernel));
    if (adaptive_rto) {
      in.sstack.channel->set_adaptive_timeout(true);
    }
  });

  FaultEngine faults(*in.net, plan);
  ChaosBench out;
  out.run = RpcWorkload::RunChaos(*in.net, *in.ch->kernel, in.MakeCall(), oracle, spec);
  out.oracle = oracle.Finish();
  out.events_fired = in.net->events_fired();
  const ChannelProtocol::Stats& st = in.cstack.channel->stats();
  out.boot_resets = st.boot_resets;
  out.retransmissions = st.retransmissions;
  out.timeouts = st.timeouts;
  for (size_t s = 0; s < in.net->num_segments(); ++s) {
    out.down_drops += in.net->segment(static_cast<int>(s)).down_drops();
    out.fault_drops += in.net->segment(static_cast<int>(s)).fault_drops();
  }
  return out;
}

// --- table printing ------------------------------------------------------------

inline void PrintTableHeader(const char* title) {
  std::printf("\n%s\n", title);
  std::printf("%-30s %10s %14s %18s\n", "Configuration", "Latency", "Throughput",
              "Incremental Cost");
  std::printf("%-30s %10s %14s %18s\n", "", "(msec)", "(kbytes/sec)", "(msec/1k-bytes)");
  std::printf("%s\n", std::string(76, '-').c_str());
}

inline void PrintRow(const ConfigResult& r, double paper_lat = 0, double paper_tput = 0,
                     double paper_incr = 0) {
  std::printf("%-30s %10.2f %14.0f %18.2f", r.name.c_str(), r.latency_ms, r.throughput_kbs,
              r.incr_ms_per_kb);
  if (paper_lat > 0) {
    std::printf("   [paper: %.2f / %.0f / %.2f]", paper_lat, paper_tput, paper_incr);
  }
  std::printf("\n");
}

}  // namespace xk

#endif  // XK_BENCH_BENCH_UTIL_H_
