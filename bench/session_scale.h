// session_scale: does the object layer survive 10^5..10^6 live sessions?
//
// The paper's session concept makes per-connection state explicit; this
// workload measures what that costs at datacenter connection counts. Two
// hosts, UDP stacks. The client opens N sessions (distinct (local port,
// server port) pairs) and the server pre-opens the N matching sessions, so
// both actively hold N entries in their DemuxMaps and N slots in their
// SlabPools without pushing N warmup datagrams through the wire. A fixed
// number of echo calls, strided across the session space, then measures the
// per-call cost with the full population resident -- the flat-ns/call claim
// is that this does not depend on N. Finally both protocols get an idle
// timeout and the sim drains: the sweep timer must evict every session
// (nothing else references them), which is the reclamation claim.
//
// Soak mode (cycles > 1) repeats open -> drain; the slab high-water from
// cycle 1 must satisfy every later cycle, so the pool capacity -- and the
// process RSS it dominates -- plateaus instead of growing with total
// sessions ever created.
//
// Determinism: every metric except the *_wall_* and rss_* fields is
// simulated (charged costs, evictions, map geometry) and byte-identical run
// to run; the host-side fields are emitted as host_metrics so --stable runs
// omit them.

#ifndef XK_BENCH_SESSION_SCALE_H_
#define XK_BENCH_SESSION_SCALE_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "src/stat/histogram.h"

namespace xk {

struct SessionScaleSpec {
  size_t sessions = 1000;  // live sessions per side
  int calls = 512;         // measured echoes, strided across the population
  int cycles = 1;          // >1 = churn soak: repeat open -> evict
  SimTime idle_timeout = Msec(5);
};

struct SessionScaleBench {
  size_t sessions = 0;
  int cycles = 0;
  int completed = 0;  // echoes that came back
  // Charged (simulated) client+server CPU per measured call.
  double sim_cpu_ns_per_call = 0;
  uint64_t client_evicted = 0;
  uint64_t server_evicted = 0;
  size_t client_live_peak = 0;
  size_t client_live_after = 0;  // after the final drain; 0 = full reclamation
  size_t server_live_after = 0;
  size_t client_slots = 0;       // slab capacity after the last cycle
  size_t client_high_water = 0;  // peak concurrently-live sessions ever
  size_t map_capacity_peak = 0;  // client active_ DemuxMap geometry at peak
  size_t map_tombstones_after = 0;
  size_t map_max_probe_peak = 0;
  uint64_t events_fired = 0;
  SimTime elapsed = 0;  // simulated time consumed by the whole job
  Histogram rtt;
  // Host-side (wall-clock / process) observations -- NOT deterministic.
  double setup_wall_ms = 0;      // opening both populations, last cycle
  double call_wall_ns = 0;       // steady state: same sample, caches warm
  double call_wall_cold_ns = 0;  // first touch of each sampled session
  double rss_mb_after_setup = 0;
  double rss_mb_after_drain = 0;
  double rss_mb_first_cycle = 0;  // after cycle 1's drain (soak plateau base)
};

namespace session_scale_internal {

// Current process resident set in MB (Linux /proc; 0 where unavailable).
inline double ReadRssMb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
#else
  return 0;
#endif
}

}  // namespace session_scale_internal

inline SessionScaleBench MeasureSessionScale(const SessionScaleSpec& spec) {
  using Clock = std::chrono::steady_clock;
  auto net = Internet::TwoHosts(HostEnv::kXKernel);
  auto& ch = net->host("client");
  auto& sh = net->host("server");
  UdpProtocol* cudp = BuildUdp(ch);
  UdpProtocol* sudp = BuildUdp(sh);
  // Checksums walk the payload per datagram; this workload measures session
  // residency, not byte costs.
  cudp->set_checksum_enabled(false);
  sudp->set_checksum_enabled(false);

  EchoAnchor* client = nullptr;
  EchoAnchor* server = nullptr;
  ch.kernel->RunTask(net->events().now(), [&] {
    client = &ch.kernel->Emplace<EchoAnchor>(*ch.kernel, /*server_role=*/false);
  });
  sh.kernel->RunTask(net->events().now(), [&] {
    server = &sh.kernel->Emplace<EchoAnchor>(*sh.kernel, /*server_role=*/true);
  });

  // Port plan: local ports cycle 1..60000, server ports start at 20000 and
  // step every 60000 sessions, so every (peer port, local port) pair -- and
  // therefore every demux key -- is distinct up to ~10^6 sessions per side.
  constexpr size_t kLocalPorts = 60000;
  auto local_port = [](size_t i) { return static_cast<uint16_t>(1 + i % kLocalPorts); };
  auto server_port = [](size_t i) { return static_cast<uint16_t>(20000 + i / kLocalPorts); };

  SessionScaleBench out;
  out.sessions = spec.sessions;
  out.cycles = spec.cycles;
  const SimTime sim_start = net->events().now();

  std::vector<SessionRef> csess;
  std::vector<SessionRef> ssess;
  ControlArgs args;
  for (int cycle = 0; cycle < spec.cycles; ++cycle) {
    // --- build the population (batched tasks: Open charges sim CPU) ----------
    const auto setup_t0 = Clock::now();
    csess.assign(spec.sessions, nullptr);
    ssess.assign(spec.sessions, nullptr);
    constexpr size_t kBatch = 8192;
    for (size_t base = 0; base < spec.sessions; base += kBatch) {
      const size_t end = std::min(base + kBatch, spec.sessions);
      ch.kernel->RunTask(net->events().now(), [&, base, end] {
        for (size_t i = base; i < end; ++i) {
          ParticipantSet parts;
          parts.local.port = local_port(i);
          parts.peer.host = sh.kernel->ip_addr();
          parts.peer.port = server_port(i);
          Result<SessionRef> r = cudp->Open(*client, parts);
          if (r.ok()) {
            csess[i] = *r;
          }
        }
      });
      sh.kernel->RunTask(net->events().now(), [&, base, end] {
        for (size_t i = base; i < end; ++i) {
          // The mirror session: the server "accepts" the peer before any
          // datagram arrives, exactly the state a passive demux would build.
          ParticipantSet parts;
          parts.local.port = server_port(i);
          parts.peer.host = ch.kernel->ip_addr();
          parts.peer.port = local_port(i);
          Result<SessionRef> r = sudp->Open(*server, parts);
          if (r.ok()) {
            ssess[i] = *r;
          }
        }
      });
    }
    out.setup_wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - setup_t0).count();
    out.rss_mb_after_setup = session_scale_internal::ReadRssMb();
    out.client_live_peak = std::max(out.client_live_peak, cudp->live_sessions());
    out.map_capacity_peak = std::max(out.map_capacity_peak, cudp->active_map().capacity());
    out.map_max_probe_peak =
        std::max(out.map_max_probe_peak, cudp->active_map().MaxProbeLength());

    // --- measured calls with the full population resident (first cycle) -----
    if (cycle == 0 && spec.calls > 0 && spec.sessions > 0) {
      // One unmeasured echo first: it advances the event queue to the kernels'
      // charged clocks, so no recorded RTT absorbs the setup's CPU-time skew.
      ch.kernel->RunTask(net->events().now(), [&] {
        client->Send(csess[0], Message(64), [](Result<Message>) {});
      });
      net->RunAll();
      const SimTime busy0 = ch.kernel->cpu().total_busy() + sh.kernel->cpu().total_busy();
      const size_t stride = std::max<size_t>(1, spec.sessions / spec.calls);
      // Four passes over the same strided sample. Pass 0 touches each sampled
      // session for the first time (cold: the population's memory footprint
      // is the cost); passes 1-3 are the steady state -- the flat-ns/call
      // claim is that a hot session's cost does not depend on how many cold
      // sessions are resident around it. The warm figure is the best pass
      // (standard microbenchmark practice: the minimum is the run least
      // disturbed by the host).
      constexpr int kPasses = 4;
      for (int pass = 0; pass < kPasses; ++pass) {
        const auto pass_t0 = Clock::now();
        for (int c = 0; c < spec.calls; ++c) {
          const SessionRef& sess = csess[(static_cast<size_t>(c) * stride) % spec.sessions];
          bool done_flag = false;
          ch.kernel->RunTask(net->events().now(), [&] {
            // The kernel-local clock on both ends: inside a task that is the
            // CPU's clock, which includes the charged send and receive work.
            const SimTime t0 = ch.kernel->now();
            client->Send(sess, Message(64), [&, t0](Result<Message> r) {
              done_flag = r.ok();
              out.rtt.Record(ch.kernel->now() - t0);
            });
          });
          net->RunAll();
          if (done_flag) {
            ++out.completed;
          }
        }
        const double pass_ns =
            std::chrono::duration<double, std::nano>(Clock::now() - pass_t0).count() /
            spec.calls;
        if (pass == 0) {
          out.call_wall_cold_ns = pass_ns;
        } else if (out.call_wall_ns == 0 || pass_ns < out.call_wall_ns) {
          out.call_wall_ns = pass_ns;
        }
      }
      const SimTime busy1 = ch.kernel->cpu().total_busy() + sh.kernel->cpu().total_busy();
      out.sim_cpu_ns_per_call = static_cast<double>(busy1 - busy0) / (kPasses * spec.calls);
    }

    // --- drain: drop our references, arm the idle sweep, run to quiescence --
    csess.clear();
    ssess.clear();
    ch.kernel->RunTask(net->events().now(), [&] {
      args.u64 = static_cast<uint64_t>(spec.idle_timeout);
      (void)cudp->Control(ControlOp::kSetIdleTimeout, args);
    });
    sh.kernel->RunTask(net->events().now(), [&] {
      args.u64 = static_cast<uint64_t>(spec.idle_timeout);
      (void)sudp->Control(ControlOp::kSetIdleTimeout, args);
    });
    net->RunAll();
    // Disarm before the next cycle's build so no sweep lands mid-setup.
    ch.kernel->RunTask(net->events().now(), [&] {
      args.u64 = 0;
      (void)cudp->Control(ControlOp::kSetIdleTimeout, args);
    });
    sh.kernel->RunTask(net->events().now(), [&] {
      args.u64 = 0;
      (void)sudp->Control(ControlOp::kSetIdleTimeout, args);
    });
    if (cycle == 0) {
      out.rss_mb_first_cycle = session_scale_internal::ReadRssMb();
    }
  }

  out.client_evicted = cudp->idle_evictions();
  out.server_evicted = sudp->idle_evictions();
  out.client_live_after = cudp->live_sessions();
  out.server_live_after = sudp->live_sessions();
  out.client_slots = cudp->session_slots();
  out.client_high_water = cudp->session_high_water();
  out.map_tombstones_after = cudp->active_map().tombstones();
  out.events_fired = net->events_fired();
  out.elapsed = net->events().now() - sim_start;
  out.rss_mb_after_drain = session_scale_internal::ReadRssMb();
  return out;
}

}  // namespace xk

#endif  // XK_BENCH_SESSION_SCALE_H_
