#include "hostbench/workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>

#include "src/app/anchor.h"
#include "src/app/oracle.h"
#include "src/app/stacks.h"
#include "src/cluster/arrivals.h"
#include "src/cluster/client.h"
#include "src/cluster/vpool.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "src/rpc/channel.h"
#include "src/rpc/fragment.h"
#include "src/sim/rng.h"

namespace hostbench {

namespace {

constexpr uint16_t kCommand = 1;

double Seconds(Ns ns) { return static_cast<double>(ns) * 1e-9; }

struct DigestField {
  const char* name;
  uint64_t Digest::*member;
};

constexpr DigestField kDigestFields[] = {
    {"events", &Digest::events},         {"issued", &Digest::issued},
    {"completed", &Digest::completed},   {"failed", &Digest::failed},
    {"rtt_sum_ns", &Digest::rtt_sum_ns}, {"last_done_ns", &Digest::last_done_ns},
    {"frames", &Digest::frames},
};

// Simulator counters summed over hosts, read before and after the run phase.
struct Snapshot {
  uint64_t events = 0;
  uint64_t frames = 0;
  uint64_t crossings = 0;
  uint64_t map_hits = 0;
  uint64_t map_misses = 0;
  uint64_t fragments = 0;
  uint64_t retransmits = 0;
};

uint64_t FramesSent(const xk::Internet& net) {
  uint64_t frames = 0;
  for (size_t s = 0; s < net.num_segments(); ++s) {
    frames += net.segment(static_cast<int>(s)).frames_sent();
  }
  return frames;
}

Snapshot Snap(xk::Internet& net, const std::vector<std::string>& hosts) {
  Snapshot s;
  s.events = net.events_fired();
  s.frames = FramesSent(net);
  for (const std::string& h : hosts) {
    net.host(h).kernel->ForEachProtocol([&s](const xk::Protocol& p) {
      const xk::ProtoCounters& c = p.counters();
      s.crossings += c.msgs_in + c.msgs_out;
      s.map_hits += c.map_hits;
      s.map_misses += c.map_misses;
      if (const auto* frag = dynamic_cast<const xk::FragmentProtocol*>(&p)) {
        s.fragments += frag->stats().fragments_sent;
        s.retransmits += frag->stats().fragments_resent;
      } else if (const auto* chan = dynamic_cast<const xk::ChannelProtocol*>(&p)) {
        s.retransmits += chan->stats().retransmissions;
      }
    });
  }
  return s;
}

void SetRunDeltas(const Snapshot& a, const Snapshot& b, EpisodeStats* st) {
  st->run_events = b.events - a.events;
  st->run_frames = b.frames - a.frames;
  st->crossings = b.crossings - a.crossings;
  st->map_hits = b.map_hits - a.map_hits;
  st->map_misses = b.map_misses - a.map_misses;
  st->fragments = b.fragments - a.fragments;
  st->retransmits = b.retransmits - a.retransmits;
}

// Outcome of one closed-loop call, filled in by its completion callback. The
// callback captures only a pointer to this and the issue time, so it fits in
// std::function's inline storage.
struct CallOutcome {
  xk::Kernel* kernel = nullptr;
  const xk::Message* expect = nullptr;  // null: the reply must be empty
  bool done = false;
  bool ok = false;
  xk::SimTime at = 0;
  xk::SimTime rtt = 0;

  xk::RpcDone Callback(xk::SimTime issued_at) {
    done = false;
    return [o = this, issued_at](xk::Result<xk::Message> r) {
      o->done = true;
      o->ok = r.ok() && (o->expect != nullptr ? r->ContentEquals(*o->expect) : r->length() == 0);
      o->at = o->kernel->now();
      o->rtt = o->at - issued_at;
    };
  }
};

// Tallies one step's call into the digest.
void Tally(const CallOutcome& c, Digest* d) {
  ++d->issued;
  if (c.done && c.ok) {
    ++d->completed;
    d->rtt_sum_ns += static_cast<uint64_t>(c.rtt);
    d->last_done_ns = std::max(d->last_done_ns, static_cast<uint64_t>(c.at));
  } else {
    ++d->failed;
  }
}

// ---------------------------------------------------------------------------
// paper-rpc
// ---------------------------------------------------------------------------

// The seed's request-size mix: 0 B 40%, 1 KB 35%, 4 KB 15%, 16 KB 10%. Null
// calls stay under half, so the step median falls inside the 1 KB calls; at
// exactly half it would be the midpoint of the slowest null call and the
// fastest 1 KB call, read off one or the other by the seed's draw count.
size_t DrawRequestSize(xk::Rng& rng) {
  const uint64_t u = rng.NextBelow(100);
  if (u < 40) {
    return 0;
  }
  if (u < 75) {
    return 1024;
  }
  return u < 90 ? 4096 : 16384;
}

EpisodeStats RunPaperRpc(uint64_t seed, const Scale& scale, SpanRecorder* rec) {
  EpisodeStats st;
  const Ns t0 = NowNs();
  std::unique_ptr<xk::Internet> net;
  {
    Scope s(rec, "topology");
    net = xk::Internet::TwoHosts();
  }
  xk::HostStack& ch = net->host("client");
  xk::HostStack& sh = net->host("server");
  xk::RpcStack cstack;
  {
    Scope s(rec, "stacks");
    cstack = xk::BuildLRpc(ch);
    const xk::RpcStack sstack = xk::BuildLRpc(sh);
    sh.kernel->RunTask(net->events().now(), [&] {
      auto& server = sh.kernel->Emplace<xk::RpcServer>(*sh.kernel, sstack.top);
      (void)server.Export(xk::RpcServer::kAny, [](uint16_t, xk::Message&) { return xk::Message(); });
    });
  }
  xk::RpcClient* client = nullptr;
  {
    Scope s(rec, "anchors");
    ch.kernel->RunTask(net->events().now(), [&] {
      client = &ch.kernel->Emplace<xk::RpcClient>(*ch.kernel, cstack.top);
    });
  }
  const xk::IpAddr server_ip = sh.kernel->ip_addr();
  CallOutcome call;
  call.kernel = ch.kernel;
  auto issue = [&](size_t bytes) {
    ch.kernel->RunTask(net->events().now(), [&] {
      client->Call(server_ip, kCommand, xk::Message(bytes), call.Callback(ch.kernel->now()));
    });
  };
  {
    // The first call opens the session at every layer of both stacks.
    Scope s(rec, "warmup");
    issue(0);
    net->RunAll();
    if (!call.done || !call.ok) {
      st.error = "paper-rpc: the warm-up call failed";
      return st;
    }
  }
  st.setup_s = Seconds(NowNs() - t0);

  const std::vector<std::string> hosts = {"client", "server"};
  const Snapshot before = Snap(*net, hosts);
  xk::Rng rng(seed);
  st.step_ns.reserve(static_cast<size_t>(scale.rpc_calls));
  {
    Scope run(rec, "run");
    for (int i = 0; i < scale.rpc_calls; ++i) {
      const size_t bytes = DrawRequestSize(rng);
      const auto op = static_cast<uint64_t>(i);
      const Ns s0 = NowNs();
      {
        Scope step(rec, "step", op);
        {
          Scope push(rec, "push", op);
          issue(bytes);
        }
        Scope run_all(rec, "run_all", op);
        net->RunAll();
      }
      st.step_ns.push_back(static_cast<double>(NowNs() - s0));
      Tally(call, &st.digest);
    }
  }
  st.op_ns = st.step_ns;
  const Snapshot after = Snap(*net, hosts);
  SetRunDeltas(before, after, &st);
  st.step_events = st.run_events;

  st.digest.events = net->events_fired();
  st.digest.frames = FramesSent(*net);
  st.ops = st.digest.completed;
  st.attempted = st.digest.issued;
  st.failed = st.digest.failed;
  if (st.digest.failed != 0) {
    st.error = "paper-rpc: " + std::to_string(st.digest.failed) +
               " calls failed or got a non-null reply";
  }
  return st;
}

// ---------------------------------------------------------------------------
// cluster-openloop
// ---------------------------------------------------------------------------

// The sat-knee topology (2 client segments x 2 clients, a core router, 4
// round-robin replicas) built from the calls MeasureDatacenter makes, loaded
// at 120 calls/s per client: about 75% of the 160 cps knee, so the queue
// stays bounded and no call fails.
EpisodeStats RunClusterOpenLoop(uint64_t seed, const Scale& scale, SpanRecorder* rec) {
  constexpr int kClientSegments = 2;
  constexpr int kClientsPerSegment = 2;
  constexpr int kReplicas = 4;
  constexpr double kRateCps = 120;
  constexpr size_t kPayloadBytes = 64;
  const xk::IpAddr kService(10, 99, 0, 1);

  EpisodeStats st;
  const Ns t0 = NowNs();
  std::unique_ptr<xk::Internet> net;
  std::vector<std::string> hosts = {"core"};
  std::vector<xk::IpAddr> replica_ips;
  std::vector<xk::HostStack*> replicas;
  std::vector<xk::HostStack*> clients;
  {
    Scope s(rec, "topology");
    net = std::make_unique<xk::Internet>(xk::HostEnv::kXKernel, seed);
    xk::WireModel wire;
    wire.propagation = xk::Usec(200);
    const int server_seg = net->AddSegment(wire);
    std::vector<std::pair<int, xk::IpAddr>> attachments = {{server_seg, xk::IpAddr(10, 0, 0, 254)}};
    std::vector<int> client_segs;
    for (int i = 0; i < kClientSegments; ++i) {
      client_segs.push_back(net->AddSegment(wire));
      attachments.emplace_back(client_segs.back(), xk::IpAddr(10, 0, static_cast<uint8_t>(i + 1), 254));
    }
    net->AddRouter("core", attachments);
    for (int r = 0; r < kReplicas; ++r) {
      const std::string name = "s" + std::to_string(r);
      const xk::IpAddr ip(10, 0, 0, static_cast<uint8_t>(r + 1));
      replicas.push_back(&net->AddHost(name, server_seg, ip));
      net->SetDefaultGateway(name, xk::IpAddr(10, 0, 0, 254));
      replica_ips.push_back(ip);
      hosts.push_back(name);
    }
    for (int i = 0; i < kClientSegments; ++i) {
      const auto seg_octet = static_cast<uint8_t>(i + 1);
      for (int j = 0; j < kClientsPerSegment; ++j) {
        const std::string name = "c" + std::to_string(i) + "_" + std::to_string(j);
        clients.push_back(&net->AddHost(name, client_segs[static_cast<size_t>(i)],
                                        xk::IpAddr(10, 0, seg_octet, static_cast<uint8_t>(j + 1))));
        net->SetDefaultGateway(name, xk::IpAddr(10, 0, seg_octet, 254));
        hosts.push_back(name);
      }
    }
    net->WarmArp();
  }
  xk::AmoOracle oracle;
  std::vector<xk::RpcStack> client_stacks;
  {
    Scope s(rec, "stacks");
    for (xk::HostStack* h : replicas) {
      const xk::RpcStack stack = xk::BuildLRpc(*h);
      h->kernel->RunTask(net->events().now(), [&] {
        auto& server = h->kernel->Emplace<xk::RpcServer>(*h->kernel, stack.top);
        (void)server.Export(kCommand, oracle.WrapEcho(h->kernel));
      });
    }
    for (xk::HostStack* h : clients) {
      client_stacks.push_back(xk::BuildLRpc(*h));
    }
  }
  std::vector<std::unique_ptr<xk::OpenLoopGen>> gens;
  {
    // VPOOL bind, the id-pairing client and the arrival generators. Sessions
    // open on each client's first arrivals: a warm-up call would shift the
    // generators off time zero, where their arrival clocks start.
    Scope s(rec, "cluster");
    for (size_t idx = 0; idx < clients.size(); ++idx) {
      xk::Kernel* k = clients[idx]->kernel;
      xk::ClusterClient* cc = nullptr;
      k->RunTask(net->events().now(), [&] {
        auto& vpool = k->Emplace<xk::VpoolProtocol>(*k, client_stacks[idx].top);
        vpool.BindService(kService, replica_ips, xk::VpoolPolicy::kRoundRobin);
        cc = &k->Emplace<xk::ClusterClient>(*k, &vpool);
      });
      xk::ArrivalSpec arrivals;
      arrivals.kind = xk::ArrivalSpec::Kind::kPoisson;
      arrivals.rate_cps = kRateCps;
      arrivals.horizon = scale.cluster_horizon;
      arrivals.seed = seed * 1000003 + idx;
      gens.push_back(std::make_unique<xk::OpenLoopGen>(*k, *cc, oracle, arrivals, kService,
                                                        kCommand, kPayloadBytes, (idx + 1) << 32));
      gens.back()->Start();
    }
  }
  st.setup_s = Seconds(NowNs() - t0);

  const Snapshot before = Snap(*net, hosts);
  xk::AmoOracle::Report report;
  Ns tail0 = 0;
  {
    Scope run(rec, "run");
    xk::EventQueue& queue = net->events();
    uint64_t op = 0;
    for (xk::SimTime t = scale.cluster_slice; t <= scale.cluster_horizon;
         t += scale.cluster_slice, ++op) {
      const Ns s0 = NowNs();
      {
        Scope step(rec, "run_until", op);
        queue.RunUntil(t);
      }
      st.step_ns.push_back(static_cast<double>(NowNs() - s0));
    }
    tail0 = NowNs();
    {
      // Calls still in flight at the horizon, then the protocol timers.
      Scope drain(rec, "drain");
      net->RunAll();
    }
    Scope finish(rec, "oracle");
    report = oracle.Finish();
  }
  st.op_ns = st.step_ns;
  st.op_ns.push_back(static_cast<double>(NowNs() - tail0));  // the drain and the oracle
  const Snapshot after = Snap(*net, hosts);
  SetRunDeltas(before, after, &st);
  st.step_events = st.run_events;  // the drain's included

  Digest& d = st.digest;
  for (const auto& gen : gens) {
    d.issued += gen->issued();
    d.completed += gen->completed();
    d.failed += gen->failed();
    d.rtt_sum_ns += static_cast<uint64_t>(gen->rtt().sum());
    d.last_done_ns = std::max(d.last_done_ns, static_cast<uint64_t>(gen->last_done_at()));
  }
  d.events = net->events_fired();
  d.frames = FramesSent(*net);
  st.ops = d.completed;
  st.attempted = d.issued;
  st.failed = d.failed;
  if (!report.clean()) {
    st.error = "cluster-openloop: the at-most-once oracle is not clean (double=" +
               std::to_string(report.double_executions) +
               " mismatched=" + std::to_string(report.mismatched_replies) +
               " unknown=" + std::to_string(report.unknown_replies) +
               " silent=" + std::to_string(report.silent) + ")";
  } else if (d.issued != d.completed + d.failed || report.issued != d.issued) {
    st.error = "cluster-openloop: issued " + std::to_string(d.issued) + " != completed " +
               std::to_string(d.completed) + " + failed " + std::to_string(d.failed);
  } else if (d.failed != 0) {
    st.error = "cluster-openloop: " + std::to_string(d.failed) + " calls failed";
  }
  return st;
}

// ---------------------------------------------------------------------------
// session-churn
// ---------------------------------------------------------------------------

size_t HeapInUse() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

// Two hosts on UDP. Each cycle opens `churn_sessions` sessions per side in
// batched tasks (DemuxMap binds, SlabPool allocations), sends strided echo
// calls over the resident population (lookups), then arms the idle sweep and
// drains every session (unbinds, evictions). Port plan as in session_scale:
// every (peer port, local port) pair, and so every demux key, is distinct.
// The seed draws the payload bytes, each cycle's stride offset and each echo's
// payload size (16, 32, 64 or 128 B).
EpisodeStats RunSessionChurn(uint64_t seed, const Scale& scale, SpanRecorder* rec) {
  constexpr size_t kLocalPorts = 60000;
  constexpr size_t kBatch = 8192;
  constexpr size_t kPayloadSizes[] = {16, 32, 64, 128};
  constexpr xk::SimTime kIdleTimeout = xk::Msec(5);
  auto local_port = [](size_t i) { return static_cast<uint16_t>(1 + i % kLocalPorts); };
  auto server_port = [](size_t i) { return static_cast<uint16_t>(20000 + i / kLocalPorts); };

  EpisodeStats st;
  const Ns t0 = NowNs();
  std::unique_ptr<xk::Internet> net;
  {
    Scope s(rec, "topology");
    net = xk::Internet::TwoHosts();
  }
  xk::HostStack& ch = net->host("client");
  xk::HostStack& sh = net->host("server");
  xk::UdpProtocol* cudp = nullptr;
  xk::UdpProtocol* sudp = nullptr;
  {
    Scope s(rec, "stacks");
    cudp = xk::BuildUdp(ch);
    sudp = xk::BuildUdp(sh);
    // This workload measures session state, not per-byte checksum cost.
    cudp->set_checksum_enabled(false);
    sudp->set_checksum_enabled(false);
  }
  xk::EchoAnchor* client = nullptr;
  xk::EchoAnchor* server = nullptr;
  {
    Scope s(rec, "anchors");
    ch.kernel->RunTask(net->events().now(), [&] {
      client = &ch.kernel->Emplace<xk::EchoAnchor>(*ch.kernel, /*server_role=*/false);
    });
    sh.kernel->RunTask(net->events().now(), [&] {
      server = &sh.kernel->Emplace<xk::EchoAnchor>(*sh.kernel, /*server_role=*/true);
    });
  }
  auto open = [](xk::UdpProtocol* udp, xk::EchoAnchor* anchor, xk::IpAddr peer,
                 uint16_t local, uint16_t remote) -> xk::SessionRef {
    xk::ParticipantSet parts;
    parts.local.port = local;
    parts.peer.host = peer;
    parts.peer.port = remote;
    xk::Result<xk::SessionRef> r = udp->Open(*anchor, parts);
    return r.ok() ? *r : nullptr;
  };
  const xk::IpAddr client_ip = ch.kernel->ip_addr();
  const xk::IpAddr server_ip = sh.kernel->ip_addr();

  xk::Rng rng(seed);
  std::vector<uint8_t> pattern(kPayloadSizes[std::size(kPayloadSizes) - 1]);
  for (uint8_t& b : pattern) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  std::vector<xk::Message> payloads;
  for (const size_t size : kPayloadSizes) {
    payloads.push_back(xk::Message::FromBytes(std::span(pattern).first(size)));
  }
  CallOutcome call;
  call.kernel = ch.kernel;
  // Echoes `payloads[k]`; the reply must come back equal to it.
  auto send = [&](const xk::SessionRef& sess, size_t k) {
    call.expect = &payloads[k];
    ch.kernel->RunTask(net->events().now(), [&] {
      client->Send(sess, payloads[k], call.Callback(ch.kernel->now()));
    });
  };
  {
    // One session pair outside the population's port range, echoed once; it
    // stays bound until the first cycle's sweep reclaims it.
    Scope s(rec, "warmup");
    xk::SessionRef warm;
    xk::SessionRef warm_peer;
    ch.kernel->RunTask(net->events().now(),
                       [&] { warm = open(cudp, client, server_ip, 60001, 60002); });
    sh.kernel->RunTask(net->events().now(),
                       [&] { warm_peer = open(sudp, server, client_ip, 60002, 60001); });
    if (warm == nullptr || warm_peer == nullptr) {
      st.error = "session-churn: the warm-up open was refused";
      return st;
    }
    send(warm, 0);
    net->RunAll();
    if (!call.done || !call.ok) {
      st.error = "session-churn: the warm-up echo failed";
      return st;
    }
  }
  st.setup_s = Seconds(NowNs() - t0);

  const std::vector<std::string> hosts = {"client", "server"};
  const Snapshot before = Snap(*net, hosts);
  const size_t n = scale.churn_sessions;
  const size_t echoes = static_cast<size_t>(scale.churn_echoes);
  const size_t stride = std::max<size_t>(1, n / std::max<size_t>(1, echoes));
  uint64_t refused = 0;
  std::vector<xk::SessionRef> csess;
  std::vector<xk::SessionRef> ssess;
  xk::ControlArgs args;
  auto set_idle = [&](xk::SimTime timeout) {
    args.u64 = static_cast<uint64_t>(timeout);
    ch.kernel->RunTask(net->events().now(),
                       [&] { (void)cudp->Control(xk::ControlOp::kSetIdleTimeout, args); });
    sh.kernel->RunTask(net->events().now(),
                       [&] { (void)sudp->Control(xk::ControlOp::kSetIdleTimeout, args); });
  };
  st.step_ns.reserve(echoes * static_cast<size_t>(scale.churn_cycles));
  uint64_t op = 0;
  {
    Scope run(rec, "run");
    for (int cycle = 0; cycle < scale.churn_cycles; ++cycle) {
      Scope cyc(rec, "cycle", static_cast<uint64_t>(cycle));
      csess.assign(n, nullptr);
      ssess.assign(n, nullptr);
      const size_t heap0 = rec != nullptr && cycle == 0 ? HeapInUse() : 0;
      const Ns open0 = NowNs();
      for (size_t base = 0; base < n; base += kBatch) {
        const size_t end = std::min(base + kBatch, n);
        {
          Scope s(rec, "open", base);
          ch.kernel->RunTask(net->events().now(), [&] {
            for (size_t i = base; i < end; ++i) {
              csess[i] = open(cudp, client, server_ip, local_port(i), server_port(i));
            }
          });
        }
        Scope s(rec, "open", base);
        sh.kernel->RunTask(net->events().now(), [&] {
          // The mirror session, as a passive demux would build it.
          for (size_t i = base; i < end; ++i) {
            ssess[i] = open(sudp, server, client_ip, server_port(i), local_port(i));
          }
        });
      }
      const Ns open_ns = NowNs() - open0;
      st.opens += 2 * n;
      for (size_t i = 0; i < n; ++i) {
        refused += (csess[i] == nullptr ? 1 : 0) + (ssess[i] == nullptr ? 1 : 0);
      }
      if (rec != nullptr) {
        if (cycle == 0 && n > 0) {
          st.bytes_per_session =
              static_cast<double>(HeapInUse() - heap0) / static_cast<double>(2 * n);
        }
        st.map_probe_max = std::max({st.map_probe_max, cudp->active_map().MaxProbeLength(),
                                     sudp->active_map().MaxProbeLength()});
      }
      const size_t offset = rng.NextBelow(stride);
      for (size_t e = 0; e < echoes && n > 0; ++e, ++op) {
        const xk::SessionRef& sess = csess[(offset + e * stride) % n];
        const size_t k = rng.NextBelow(std::size(kPayloadSizes));
        const Ns s0 = NowNs();
        {
          Scope step(rec, "step", op);
          {
            Scope push(rec, "push", op);
            send(sess, k);
          }
          Scope run_all(rec, "run_all", op);
          st.step_events += net->RunAll();
        }
        st.step_ns.push_back(static_cast<double>(NowNs() - s0));
        Tally(call, &st.digest);
      }
      csess.clear();
      ssess.clear();
      const Ns evict0 = NowNs();
      {
        Scope evict(rec, "evict", static_cast<uint64_t>(cycle));
        set_idle(kIdleTimeout);
        net->RunAll();
        // Disarmed so no sweep lands in the middle of the next cycle's opens.
        set_idle(0);
      }
      // Lifecycles are counted over the writes, the opens and the sweep,
      // without the echoes, which the step times measure.
      st.op_ns.push_back(static_cast<double>(open_ns));
      st.op_ns.push_back(static_cast<double>(NowNs() - evict0));
    }
  }
  const Snapshot after = Snap(*net, hosts);
  SetRunDeltas(before, after, &st);

  st.evictions = cudp->idle_evictions() + sudp->idle_evictions();
  const uint64_t leaked = cudp->live_sessions() + sudp->live_sessions();
  const uint64_t lifecycles = st.opens - refused;
  st.digest.events = net->events_fired();
  st.digest.frames = FramesSent(*net);
  st.ops = lifecycles > leaked ? lifecycles - leaked : 0;
  st.attempted = st.opens + st.digest.issued;
  st.failed = refused + leaked + st.digest.failed;
  if (refused != 0) {
    st.error = "session-churn: " + std::to_string(refused) + " opens were refused";
  } else if (leaked != 0) {
    st.error = "session-churn: " + std::to_string(leaked) + " sessions left unreclaimed";
  } else if (st.evictions != st.opens + 2) {
    st.error = "session-churn: " + std::to_string(st.evictions) + " evictions for " +
               std::to_string(st.opens + 2) + " sessions opened";
  } else if (st.digest.failed != 0) {
    st.error = "session-churn: " + std::to_string(st.digest.failed) +
               " echo calls failed or came back wrong";
  }
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scale, digest, reference, statistics
// ---------------------------------------------------------------------------

Scale Scale::Smoke() {
  Scale s;
  s.rpc_calls = 300;
  s.cluster_horizon = xk::Sec(1);
  s.churn_sessions = 3000;
  s.churn_cycles = 2;
  s.churn_echoes = 64;
  return s;
}

Scale Scale::SetupOnly() {
  Scale s;
  s.rpc_calls = 1;
  s.cluster_horizon = s.cluster_slice;
  s.churn_sessions = 16;
  s.churn_cycles = 1;
  s.churn_echoes = 1;
  return s;
}

std::string Digest::ToString() const {
  std::string out;
  for (const DigestField& f : kDigestFields) {
    if (!out.empty()) {
      out += ' ';
    }
    out += std::string(f.name) + "=" + std::to_string(this->*f.member);
  }
  return out;
}

bool Digest::Parse(const std::string& text, Digest* out) {
  Digest d;
  size_t seen = 0;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    const std::string key = token.substr(0, eq);
    const DigestField* field = nullptr;
    for (const DigestField& f : kDigestFields) {
      if (key == f.name) {
        field = &f;
      }
    }
    char* end = nullptr;
    const unsigned long long v = std::strtoull(token.c_str() + eq + 1, &end, 10);
    if (field == nullptr || end == token.c_str() + eq + 1 || *end != '\0') {
      return false;
    }
    d.*(field->member) = v;
    ++seen;
  }
  if (seen != std::size(kDigestFields)) {
    return false;
  }
  *out = d;
  return true;
}

std::string Digest::FirstDifference(const Digest& got) const {
  for (const DigestField& f : kDigestFields) {
    if (this->*f.member != got.*f.member) {
      return f.name;
    }
  }
  return "";
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper-rpc", &RunPaperRpc},
      {"cluster-openloop", &RunClusterOpenLoop},
      {"session-churn", &RunSessionChurn},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

bool LoadReference(const std::string& path, ReferenceTable* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    uint64_t seed = 0;
    std::string rest;
    Digest d;
    if (!(fields >> workload >> seed) || !std::getline(fields, rest) || !Digest::Parse(rest, &d)) {
      *error = path + ":" + std::to_string(lineno) + ": malformed reference line";
      return false;
    }
    (*out)[{workload, seed}] = d;
  }
  return true;
}

std::string CheckReference(const ReferenceTable& ref, const Workload& w, uint64_t seed,
                           const Digest& got, const Scale& scale) {
  uint64_t checked_seed = seed;
  Digest checked = got;
  if (ref.count({w.name, seed}) == 0) {
    checked_seed = seed % kReferenceSeeds;
    if (ref.count({w.name, checked_seed}) == 0) {
      return std::string(w.name) + ": no reference digest for seed " + std::to_string(seed) +
             " or " + std::to_string(checked_seed);
    }
    const EpisodeStats e = w.run(checked_seed, scale, nullptr);
    if (!e.error.empty()) {
      return e.error;
    }
    checked = e.digest;
  }
  const Digest& want = ref.at({w.name, checked_seed});
  const std::string field = want.FirstDifference(checked);
  if (field.empty()) {
    return "";
  }
  return std::string(w.name) + " seed " + std::to_string(checked_seed) + ": digest field '" +
         field + "' differs from the reference (reference " + want.ToString() + ", got " +
         checked.ToString() + ")";
}

void KeepFastest(const std::vector<double>& ns, std::vector<double>* fastest) {
  if (fastest->empty()) {
    *fastest = ns;
  }
  for (size_t i = 0; i < ns.size() && i < fastest->size(); ++i) {
    (*fastest)[i] = std::min((*fastest)[i], ns[i]);
  }
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace hostbench
