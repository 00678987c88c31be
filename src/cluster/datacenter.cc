#include "src/cluster/datacenter.h"

#include <algorithm>
#include <memory>

#include "src/app/stacks.h"
#include "src/proto/topology.h"

namespace xk {

namespace {

constexpr uint16_t kEchoCommand = 1;

// The virtual service address: on no segment, owned by every client's VPOOL.
const IpAddr kVip(10, 99, 0, 1);

struct ClientNode {
  HostStack* hs = nullptr;
  RpcStack stack;
  VpoolProtocol* vpool = nullptr;
  ClusterClient* client = nullptr;
  std::unique_ptr<OpenLoopGen> gen;
};

}  // namespace

DatacenterResult MeasureDatacenter(const DatacenterSpec& spec) {
  Internet net(HostEnv::kXKernel, spec.seed);

  // Campus-scale propagation, short relative to call latency.
  WireModel wire;
  wire.propagation = Usec(200);

  const int server_seg = net.AddSegment(wire);
  std::vector<int> client_segs;
  for (int i = 0; i < spec.client_segments; ++i) {
    client_segs.push_back(net.AddSegment(wire));
  }

  // The fan-in point: one router attached to every segment.
  std::vector<std::pair<int, IpAddr>> attachments;
  attachments.emplace_back(server_seg, IpAddr(10, 0, 0, 254));
  for (int i = 0; i < spec.client_segments; ++i) {
    attachments.emplace_back(client_segs[static_cast<size_t>(i)],
                             IpAddr(10, 0, static_cast<uint8_t>(i + 1), 254));
  }
  net.AddRouter("core", attachments);

  std::vector<IpAddr> replica_ips;
  std::vector<std::string> replica_names;
  for (int r = 0; r < spec.replicas; ++r) {
    const IpAddr ip(10, 0, 0, static_cast<uint8_t>(r + 1));
    const std::string name = "s" + std::to_string(r);
    net.AddHost(name, server_seg, ip);
    net.SetDefaultGateway(name, IpAddr(10, 0, 0, 254));
    replica_ips.push_back(ip);
    replica_names.push_back(name);
  }

  std::vector<ClientNode> clients;
  for (int i = 0; i < spec.client_segments; ++i) {
    for (int j = 0; j < spec.clients_per_segment; ++j) {
      const std::string name = "c" + std::to_string(i) + "_" + std::to_string(j);
      ClientNode node;
      node.hs = &net.AddHost(name, client_segs[static_cast<size_t>(i)],
                             IpAddr(10, 0, static_cast<uint8_t>(i + 1),
                                    static_cast<uint8_t>(j + 1)));
      net.SetDefaultGateway(name, IpAddr(10, 0, static_cast<uint8_t>(i + 1), 254));
      clients.push_back(std::move(node));
    }
  }
  net.WarmArp();

  // Arms idle-session eviction on every idle-capable layer of one stack.
  // Runs inside a configuration task (Control charges the calling kernel).
  auto arm_idle = [&spec](const RpcStack& stack) {
    if (spec.idle_timeout == 0) {
      return;
    }
    ControlArgs args;
    args.u64 = static_cast<uint64_t>(spec.idle_timeout);
    if (stack.select != nullptr) {
      (void)stack.select->Control(ControlOp::kSetIdleTimeout, args);
    }
    if (stack.channel != nullptr) {
      (void)stack.channel->Control(ControlOp::kSetIdleTimeout, args);
    }
    if (stack.vip != nullptr) {
      (void)stack.vip->Control(ControlOp::kSetIdleTimeout, args);
    }
  };

  // Replica stacks: the standard layered L_RPC serving the oracle's echo.
  // The restart hook rebuilds the same configuration on the fresh substrate
  // (it runs inside the host's reboot task, so no RunTask wrapper there).
  AmoOracle oracle;
  for (const std::string& name : replica_names) {
    HostStack& h = net.host(name);
    RpcStack stack = BuildLRpc(h, Delivery::kVip);
    h.kernel->RunTask(net.events().now(), [&] {
      auto& server = h.kernel->Emplace<RpcServer>(*h.kernel, stack.top);
      server.set_service_delay(spec.service_delay);
      server.set_admission_limit(spec.max_inflight, spec.max_backlog);
      (void)server.Export(kEchoCommand, oracle.WrapEcho(h.kernel));
      arm_idle(stack);
    });
    net.set_restart_hook(name, [&oracle, &spec, &arm_idle](HostStack& fresh) {
      RpcStack rebuilt = BuildLRpc(fresh, Delivery::kVip);
      auto& server = fresh.kernel->Emplace<RpcServer>(*fresh.kernel, rebuilt.top);
      server.set_service_delay(spec.service_delay);
      server.set_admission_limit(spec.max_inflight, spec.max_backlog);
      (void)server.Export(kEchoCommand, oracle.WrapEcho(fresh.kernel));
      arm_idle(rebuilt);
    });
  }

  // Client stacks: L_RPC, VPOOL spreading over the pool, ClusterClient on top.
  for (ClientNode& node : clients) {
    node.stack = BuildLRpc(*node.hs, Delivery::kVip);
    Kernel* k = node.hs->kernel;
    k->RunTask(net.events().now(), [&] {
      node.vpool = &k->Emplace<VpoolProtocol>(*k, node.stack.top);
      node.vpool->BindService(kVip, replica_ips, spec.policy, spec.weights);
      node.vpool->set_readmit_after(spec.readmit_after);
      node.vpool->set_concurrency_cap(spec.concurrency_cap);
      node.vpool->set_breaker(spec.breaker_min_volume, spec.breaker_trip_ppm);
      node.client = &k->Emplace<ClusterClient>(*k, node.vpool);
      if (spec.hedge_delay > 0) {
        node.client->set_hedge_delay(spec.hedge_delay);
        node.client->set_hedge_notify([&oracle](uint64_t id) { oracle.RecordHedged(id); });
      }
      if (spec.retry_ratio_ppm > 0 && node.stack.channel != nullptr) {
        ControlArgs budget;
        budget.u64 = (static_cast<uint64_t>(spec.retry_burst) << 32) |
                     static_cast<uint64_t>(spec.retry_ratio_ppm);
        (void)node.stack.channel->Control(ControlOp::kSetRetryBudget, budget);
      }
      if (spec.idle_timeout != 0) {
        ControlArgs args;
        args.u64 = static_cast<uint64_t>(spec.idle_timeout);
        (void)node.vpool->Control(ControlOp::kSetIdleTimeout, args);
      }
      arm_idle(node.stack);
    });
  }

  // Failover-timeline window: explicit in the spec, else the plan's first
  // crash clause.
  SimTime crash_at = spec.crash_at;
  SimTime restart_at = spec.restart_at;
  if (crash_at == 0) {
    for (const FaultClause& c : spec.faults.clauses) {
      if (c.kind == FaultClause::Kind::kCrash) {
        crash_at = c.at;
        restart_at = c.restart_at;
        break;
      }
    }
  }

  // One open-loop generator per client, each with a private Rng stream and a
  // disjoint id range.
  uint64_t idx = 0;
  for (ClientNode& node : clients) {
    ArrivalSpec arrivals = spec.arrivals;
    arrivals.seed = spec.arrivals.seed * 1000003 + idx;
    node.gen = std::make_unique<OpenLoopGen>(*node.hs->kernel, *node.client, oracle, arrivals,
                                             kVip, kEchoCommand, spec.payload_bytes,
                                             (idx + 1) << 32);
    if (restart_at > crash_at) {
      node.gen->set_phase_window(crash_at, restart_at);
    }
    node.gen->set_deadline(spec.deadline);
    node.gen->Start();
    ++idx;
  }

  FaultEngine faults(net, spec.faults);
  net.RunAll();

  DatacenterResult out;
  for (const ClientNode& node : clients) {
    out.issued += node.gen->issued();
    out.completed += node.gen->completed();
    out.failed += node.gen->failed();
    out.rtt.Merge(node.gen->rtt());
    out.last_done_at = std::max(out.last_done_at, node.gen->last_done_at());
    out.sum_done_at += node.gen->last_done_at();
    for (int p = 0; p < 3; ++p) {
      const OpenLoopGen::PhaseStats& ph = node.gen->phase(p);
      out.phases[p].issued += ph.issued;
      out.phases[p].completed += ph.completed;
      out.phases[p].failed += ph.failed;
    }
    out.down_marks += node.vpool->down_marks();
    out.readmits += node.vpool->readmits();
    out.rerouted_opens += node.vpool->rerouted_opens();
    out.all_down_failures += node.vpool->all_down_failures();
    out.session_flushes += node.vpool->session_flushes();
    out.late_replies += node.client->late_replies();
    out.shed += node.gen->shed();
    out.rejected += node.gen->rejected();
    out.budget_exhausted += node.gen->budget_exhausted();
    out.hedges += node.client->hedges();
    out.hedge_cancels += node.client->hedge_cancels();
    out.capped_rejects += node.vpool->capped_rejects();
    out.breaker_trips += node.vpool->breaker_trips();
    out.idle_evictions += node.vpool->idle_evictions();
    if (node.stack.select != nullptr) {
      out.idle_evictions += node.stack.select->idle_evictions();
    }
    if (node.stack.channel != nullptr) {
      out.idle_evictions += node.stack.channel->idle_evictions();
    }
    if (node.stack.vip != nullptr) {
      out.idle_evictions += node.stack.vip->idle_evictions();
    }
  }
  out.success_ppm = out.issued > 0 ? out.completed * 1000000u / out.issued : 0;
  for (int p = 0; p < 3; ++p) {
    out.phases[p].success_ppm =
        out.phases[p].issued > 0 ? out.phases[p].completed * 1000000u / out.phases[p].issued : 0;
  }
  const double horizon_sec = static_cast<double>(spec.arrivals.horizon) / 1e9;
  out.offered_cps = horizon_sec > 0 ? static_cast<double>(out.issued) / horizon_sec : 0;
  out.goodput_cps = out.last_done_at > 0 ? static_cast<double>(out.completed) * 1e9 /
                                               static_cast<double>(out.last_done_at)
                                         : 0;

  out.replica_calls.assign(static_cast<size_t>(spec.replicas), 0);
  for (const ClientNode& node : clients) {
    for (int r = 0; r < spec.replicas; ++r) {
      out.replica_calls[static_cast<size_t>(r)] += node.vpool->replica_calls(r);
    }
  }
  uint64_t total_calls = 0;
  uint64_t min_calls = UINT64_MAX;
  uint64_t max_calls = 0;
  for (uint64_t c : out.replica_calls) {
    total_calls += c;
    min_calls = std::min(min_calls, c);
    max_calls = std::max(max_calls, c);
  }
  if (total_calls > 0 && spec.replicas > 0) {
    const uint64_t mean = total_calls / static_cast<uint64_t>(spec.replicas);
    out.share_spread_ppm = mean > 0 ? (max_calls - min_calls) * 1000000u / mean : 0;
  }

  out.oracle = oracle.Finish();
  out.events_fired = net.events_fired();

  {
    DatacenterResult::RouterStat rs;
    rs.name = "core";
    const IpProtocol::Stats& ip = net.host("core").ip->stats();
    rs.forwards = ip.forwards;
    rs.ttl_drops = ip.ttl_drops;
    rs.no_route_drops = ip.no_route_drops;
    out.routers.push_back(std::move(rs));
  }

  const SimTime elapsed_sim = net.events().now();
  for (size_t s = 0; s < net.num_segments(); ++s) {
    const EthernetSegment& seg = net.segment(static_cast<int>(s));
    DatacenterResult::SegStat st;
    st.segment = static_cast<int>(s);
    st.frames = seg.frames_sent();
    st.bytes = seg.bytes_sent();
    st.utilization_ppm = elapsed_sim > 0
                             ? static_cast<uint64_t>(seg.bus_busy_time()) * 1000000u /
                                   static_cast<uint64_t>(elapsed_sim)
                             : 0;
    st.queued_frames = seg.queued_frames();
    st.peak_queue_depth = seg.peak_queue_depth();
    st.wait_p99_ns = seg.queue_wait().P99();
    st.frames_dropped = seg.frames_dropped();
    st.down_drops = seg.down_drops();
    st.fault_drops = seg.fault_drops();
    out.segments.push_back(st);
  }
  return out;
}

}  // namespace xk
