// The full benchmark suite in one parallel binary.
//
// Enumerates every configuration the per-table binaries measure -- Tables
// I-III, the Section 4.3 dynamic-removal stack, the Section 1 UDP/IP
// cross-kernel comparison, the 1k..16k throughput sweep, and both ablations
// -- and runs them as independent jobs on a host thread pool, one simulated
// Internet per job. Results are written as JSON (BENCH_RESULTS.json).
//
// Parallelism rule: parallel ACROSS instances, deterministic WITHIN an
// instance. Each job builds its own Internet (its own EventQueue, kernels,
// and sessions), shares nothing mutable with other jobs, and therefore
// reports exactly the numbers the serial binaries report -- the jobs even
// call the same helpers in bench_util.h. Only the host-side wall-clock
// fields (wall_ms, events_per_sec, parallel_speedup) vary run to run.

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <regex>
#include <thread>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/trace/causal.h"
#include "bench/session_scale.h"
#include "src/cluster/datacenter.h"

namespace xk {
namespace {

struct Metric {
  std::string name;
  double value = 0;
};

struct JobResult {
  std::string group;
  std::string name;
  std::vector<Metric> metrics;
  uint64_t events_fired = 0;
  double wall_ms = 0;  // host time, measured by the job runner
  Histogram latency_hist;  // per-call round trips ("percentiles" block)
  Histogram service_hist;  // server-side service times ("service_percentiles")
  std::string extra_json;  // extra deterministic fields, e.g. "segments": [...]
  // Host-side (wall-clock) metrics: emitted only without --stable, and named
  // so the regression differ skips them (see SkippedKey in bench_diff.h).
  std::vector<Metric> host_metrics;
};

using JobFn = std::function<JobResult()>;

struct Job {
  std::string group;
  std::string name;
  JobFn run;
};

// --- job builders --------------------------------------------------------------

JobResult FromConfig(const ConfigResult& r) {
  JobResult out;
  out.metrics = {{"latency_ms", r.latency_ms},
                 {"throughput_kbs", r.throughput_kbs},
                 {"incr_ms_per_kb", r.incr_ms_per_kb},
                 {"client_cpu_ms", r.client_cpu_ms},
                 {"server_cpu_ms", r.server_cpu_ms}};
  out.events_fired = r.events_fired;
  out.latency_hist = r.latency_rtt;
  out.service_hist = r.service;
  return out;
}

Job MeasureJob(std::string group, std::string name, RpcBench::Builder builder,
               HostEnv env = HostEnv::kXKernel) {
  JobFn fn = [name, builder = std::move(builder), env] {
    return FromConfig(RpcBench::Measure(name, builder, env));
  };
  return Job{std::move(group), std::move(name), std::move(fn)};
}

Job PartialLatencyJob(std::string name, int layers) {
  JobFn fn = [layers] {
    PartialLatency p = MeasurePartialLatency(layers);
    JobResult out;
    out.metrics = {{"latency_ms", p.ms}};
    out.events_fired = p.events_fired;
    out.latency_hist = p.rtt;
    return out;
  };
  return Job{"table3_layer_costs", std::move(name), std::move(fn)};
}

Job UdpJob(std::string name, HostEnv env) {
  JobFn fn = [env] {
    UdpEcho u = MeasureUdpEcho(env);
    JobResult out;
    out.metrics = {{"latency_ms", u.ms}};
    out.events_fired = u.events_fired;
    out.latency_hist = u.rtt;
    return out;
  };
  return Job{"udp_crosskernel", std::move(name), std::move(fn)};
}

Job SweepJob(std::string name, RpcBench::Builder builder, HostEnv env = HostEnv::kXKernel) {
  JobFn fn = [builder = std::move(builder), env] {
    JobResult out;
    std::vector<double> per_call;
    for (size_t kb = 1; kb <= 16; ++kb) {
      RpcBench::Instance in = RpcBench::MakeInstance(builder, env);
      ThroughputResult t = RpcWorkload::MeasureThroughput(
          *in.net, *in.ch->kernel, *in.sh->kernel, in.MakeCall(), kb * 1024, 8);
      per_call.push_back(ToMsec(t.elapsed) / t.completed);
      out.events_fired += in.net->events_fired();
      out.metrics.push_back({"per_call_ms_" + std::to_string(kb) + "k", per_call.back()});
      out.latency_hist.Merge(t.rtt);
    }
    out.metrics.push_back({"throughput_16k_kbs", 16.0 / (per_call.back() / 1000.0)});
    out.metrics.push_back({"slope_ms_per_kb", (per_call.back() - per_call.front()) / 15.0});
    return out;
  };
  return Job{"throughput_sweep", std::move(name), std::move(fn)};
}

Job HeaderAllocJob(std::string name, HeaderAllocPolicy policy) {
  JobFn fn = [policy] {
    // The policy is thread_local; the runner resets it before each job.
    Message::set_default_alloc_policy(policy);
    JobResult out;
    PartialLatency base = MeasurePartialLatency(0);
    PartialLatency chan = MeasurePartialLatency(2);
    ConfigResult full = RpcBench::Measure(
        "SELECT-CHANNEL-FRAGMENT-VIP", [](HostStack& h) { return BuildLRpc(h, Delivery::kVip); });
    out.metrics = {{"vip_base_ms", base.ms},
                   {"full_stack_ms", full.latency_ms},
                   {"avg_per_layer_ms", (full.latency_ms - base.ms) / 3.0},
                   {"min_per_layer_ms", full.latency_ms - chan.ms}};
    out.events_fired = base.events_fired + chan.events_fired + full.events_fired;
    out.latency_hist = base.rtt;
    out.latency_hist.Merge(chan.rtt);
    out.latency_hist.Merge(full.latency_rtt);
    out.service_hist = full.service;
    return out;
  };
  return Job{"ablation_header_alloc", std::move(name), std::move(fn)};
}

// The many-host workload (32 pairs, 32 segments, one simulation).
constexpr int kManyHostPairs = 32;
constexpr size_t kManyHostBytes = 4096;
constexpr int kManyHostIters = 50;

JobResult ManyHostResult(const ManyPairsBench& b) {
  JobResult out;
  out.metrics = {{"agg_kbytes_per_sec", b.agg_kbytes_per_sec},
                 {"elapsed_sim_ms", b.elapsed_ms},
                 {"completed", static_cast<double>(b.completed)},
                 {"failed", static_cast<double>(b.failed)},
                 {"sum_done_at_ns", static_cast<double>(b.sum_done_at)}};
  out.events_fired = b.events_fired;
  out.latency_hist = b.rtt;
  out.service_hist = b.service;
  // Per-segment link statistics, all integers: byte-stable.
  std::string& seg_json = out.extra_json;
  // IP forwarding totals over every host: zero here (no routers in the
  // many-pairs topology), but reported so the datacenter jobs' forwarding
  // accounting has an explicit off-path control.
  seg_json += "\"ip\": {\"forwards\": " + std::to_string(b.ip_forwards);
  seg_json += ", \"ttl_drops\": " + std::to_string(b.ip_ttl_drops);
  seg_json += ", \"no_route_drops\": " + std::to_string(b.ip_no_route_drops);
  seg_json += "}, ";
  seg_json += "\"segments\": [";
  for (size_t s = 0; s < b.segments.size(); ++s) {
    const SegmentStat& st = b.segments[s];
    if (s > 0) {
      seg_json += ", ";
    }
    seg_json += "{\"segment\": " + std::to_string(st.segment);
    seg_json += ", \"frames\": " + std::to_string(st.frames);
    seg_json += ", \"bytes\": " + std::to_string(st.bytes);
    seg_json += ", \"busy_ns\": " + std::to_string(st.busy_ns);
    seg_json += ", \"utilization_ppm\": " + std::to_string(st.utilization_ppm);
    seg_json += ", \"queued_frames\": " + std::to_string(st.queued_frames);
    seg_json += ", \"peak_queue_depth\": " + std::to_string(st.peak_queue_depth);
    seg_json += ", \"mean_queue_depth_x1000\": " + std::to_string(st.mean_queue_depth_x1000);
    seg_json += ", \"wait_p50_ns\": " + std::to_string(st.wait_p50_ns);
    seg_json += ", \"wait_p99_ns\": " + std::to_string(st.wait_p99_ns);
    seg_json += ", \"wait_p999_ns\": " + std::to_string(st.wait_p999_ns);
    seg_json += ", \"wait_max_ns\": " + std::to_string(st.wait_max_ns);
    seg_json += ", \"frames_dropped\": " + std::to_string(st.frames_dropped);
    seg_json += "}";
  }
  seg_json += "]";
  return out;
}

Job ManyHostJob() {
  JobFn fn = [] {
    return ManyHostResult(
        MeasureManyPairsBench(kManyHostPairs, kManyHostBytes, kManyHostIters));
  };
  return Job{"manyhost", "L_RPC-VIP-32pairs", std::move(fn)};
}

// The same workload with a 0.5% uniform frame drop on every segment:
// retransmissions stretch the latency tail (p999 >> p50), which is what the
// percentile blocks and the regression gate are for.
Job ManyHostFaultsJob() {
  JobFn fn = [] {
    return ManyHostResult(MeasureManyPairsBench(kManyHostPairs, kManyHostBytes,
                                                kManyHostIters, /*drop_rate=*/0.005));
  };
  return Job{"manyhost", "L_RPC-VIP-32pairs-faults", std::move(fn)};
}

// Trace-overhead microbench: the same many-pairs workload twice back to
// back -- bare, then with a TraceSink capturing and the causal stitcher
// consuming its output -- so the host-time cost of --trace + --flow is a
// measured number. Recording charges zero simulated cost, so every simulated
// metric must be identical across the two passes: trace_mismatch counts the
// fields that differed (always 0) and rides the baseline so any tracing
// Heisenberg effect fails the regression gate. The wall-clock overhead goes
// to host_metrics, which --stable omits and the differ skips.
Job ManyHostTracedJob() {
  JobFn fn = [] {
    constexpr int kTracedPairs = 8;
    constexpr int kTracedIters = 25;
    // The worker may have installed a suite-wide sink (--trace/--flow); park
    // it so the bare pass is genuinely untraced and the traced pass is
    // measured against a sink this job owns.
    TraceSink* outer = TraceSink::thread_default();
    TraceSink::set_thread_default(nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    const ManyPairsBench bare = MeasureManyPairsBench(kTracedPairs, kManyHostBytes, kTracedIters);
    const auto t1 = std::chrono::steady_clock::now();
    TraceSink sink;
    TraceSink::set_thread_default(&sink);
    const ManyPairsBench traced =
        MeasureManyPairsBench(kTracedPairs, kManyHostBytes, kTracedIters);
    const auto t2 = std::chrono::steady_clock::now();
    TraceSink::set_thread_default(outer);
    const std::string jsonl = sink.ToJsonl();
    const tracetool::TraceFile tf = tracetool::Parse(jsonl);
    const causal::FlowAnalysis fa = causal::Stitch(tf);
    const auto t3 = std::chrono::steady_clock::now();
    double mismatch = 0;
    mismatch += bare.completed != traced.completed ? 1 : 0;
    mismatch += bare.failed != traced.failed ? 1 : 0;
    mismatch += bare.sum_done_at != traced.sum_done_at ? 1 : 0;
    mismatch += bare.events_fired != traced.events_fired ? 1 : 0;
    mismatch += bare.rtt.count() != traced.rtt.count() ? 1 : 0;
    mismatch += bare.rtt.sum() != traced.rtt.sum() ? 1 : 0;
    JobResult out;
    out.metrics = {
        {"completed", static_cast<double>(traced.completed)},
        {"failed", static_cast<double>(traced.failed)},
        {"sum_done_at_ns", static_cast<double>(traced.sum_done_at)},
        {"trace_mismatch", mismatch},
        {"trace_span_count", static_cast<double>(tf.spans.size())},
        {"trace_wire_count", static_cast<double>(tf.wires.size())},
        {"trace_event_count", static_cast<double>(tf.events.size())},
        // Zero here -- RpcClient calls carry no oracle ids -- which is the
        // control: only cluster-tier workloads produce call graphs.
        {"flow_calls", static_cast<double>(fa.calls.size())},
    };
    out.events_fired = traced.events_fired;
    out.latency_hist = traced.rtt;
    out.service_hist = traced.service;
    const auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    const double bare_ms = ms(t0, t1);
    out.host_metrics = {
        {"untraced_ms", bare_ms},
        {"traced_ms", ms(t1, t2)},
        {"stitch_ms", ms(t2, t3)},
        {"trace_overhead_pct", bare_ms > 0 ? 100.0 * (ms(t1, t3) - bare_ms) / bare_ms : 0.0},
    };
    return out;
  };
  return Job{"manyhost", "traced", std::move(fn)};
}

// Engine hot-path microbench: pure event churn plus frame-burst delivery,
// no RPC stack in the way (see MeasureHotLoop). The simulated counts gate
// against the baseline; events_per_sec is the host-side engine rate.
Job HotLoopJob() {
  JobFn fn = [] {
    HotLoopBench b = MeasureHotLoop();
    JobResult out;
    out.metrics = {{"timer_pop_count", static_cast<double>(b.timer_pops)},
                   {"burst_frames", static_cast<double>(b.frames_delivered)},
                   {"echo_count", static_cast<double>(b.echoes)},
                   {"elapsed_sim_ms", b.elapsed_sim_ms},
                   {"churn_throughput_keps",
                    b.elapsed_sim_ms > 0
                        ? static_cast<double>(b.events_fired) / b.elapsed_sim_ms
                        : 0}};
    out.host_metrics = {{"events_per_sec", b.events_per_sec}};
    out.events_fired = b.events_fired;
    return out;
  };
  return Job{"hotloop", "churn-burst-8hosts", std::move(fn)};
}

Job ColdWarmJob(std::string name, RpcBench::Builder builder) {
  JobFn fn = [builder = std::move(builder)] {
    ColdWarmResult cw = MeasureColdWarm(builder);
    JobResult out;
    out.metrics = {{"first_call_ms", cw.first_ms},
                   {"steady_state_ms", cw.steady_ms},
                   {"setup_cost_ms", cw.first_ms - cw.steady_ms}};
    out.events_fired = cw.events_fired;
    return out;
  };
  return Job{"ablation_session_cache", std::move(name), std::move(fn)};
}

// A fault campaign measured as availability: the oracle-checked chaos
// workload under a declarative FaultPlan. Every metric is simulated and
// deterministic, so chaos jobs are part of the --stable byte-identity
// checks like everything else.
Job ChaosJob(std::string name, FaultPlan plan, ChaosSpec spec, bool adaptive_rto = false) {
  JobFn fn = [plan = std::move(plan), spec, adaptive_rto] {
    ChaosBench b = MeasureChaosCampaign(plan, spec, adaptive_rto);
    JobResult out;
    const double goodput_kbs =
        b.run.elapsed > 0 ? static_cast<double>(b.run.completed) *
                                static_cast<double>(spec.payload_bytes + AmoOracle::kIdBytes) /
                                1024.0 / (ToMsec(b.run.elapsed) / 1000.0)
                          : 0.0;
    out.metrics = {
        {"success_rate_ppm",
         b.run.issued > 0 ? 1e6 * b.run.completed / b.run.issued : 0.0},
        {"completed", static_cast<double>(b.run.completed)},
        {"failed", static_cast<double>(b.run.failed)},
        {"goodput_kbytes_per_sec", goodput_kbs},
        {"elapsed_sim_ms", ToMsec(b.run.elapsed)},
        {"recovery_ms", ToMsec(b.run.recovery_latency)},
        {"retransmissions", static_cast<double>(b.retransmissions)},
        {"timeouts", static_cast<double>(b.timeouts)},
        {"boot_resets", static_cast<double>(b.boot_resets)},
        {"down_drops", static_cast<double>(b.down_drops)},
        {"fault_drops", static_cast<double>(b.fault_drops)},
        {"oracle_executions", static_cast<double>(b.oracle.executions)},
        {"oracle_double_exec", static_cast<double>(b.oracle.double_executions)},
        {"oracle_cross_boot_reexec",
         static_cast<double>(b.oracle.cross_boot_reexecutions)},
        {"oracle_silent", static_cast<double>(b.oracle.silent)},
    };
    out.events_fired = b.events_fired;
    out.latency_hist = b.run.rtt;
    return out;
  };
  return Job{"chaos", std::move(name), std::move(fn)};
}

// A datacenter job: k client segments fanning through the core router into a
// replica pool behind VPOOL, driven open-loop. Everything reported is
// simulated and deterministic, so these jobs ride the --stable
// byte-identity checks.
Job DatacenterJob(std::string name, DatacenterSpec spec) {
  JobFn fn = [spec = std::move(spec)] {
    const DatacenterResult r = MeasureDatacenter(spec);
    JobResult out;
    out.metrics = {
        {"issued", static_cast<double>(r.issued)},
        {"completed", static_cast<double>(r.completed)},
        {"failed", static_cast<double>(r.failed)},
        {"success_rate_ppm", static_cast<double>(r.success_ppm)},
        {"offered_cps", r.offered_cps},
        {"goodput_cps", r.goodput_cps},
        {"share_spread_ppm", static_cast<double>(r.share_spread_ppm)},
        {"down_marks", static_cast<double>(r.down_marks)},
        {"readmits", static_cast<double>(r.readmits)},
        {"rerouted_opens", static_cast<double>(r.rerouted_opens)},
        {"all_down_failures", static_cast<double>(r.all_down_failures)},
        {"session_flushes", static_cast<double>(r.session_flushes)},
        {"late_replies", static_cast<double>(r.late_replies)},
        {"sum_done_at_ns", static_cast<double>(r.sum_done_at)},
        {"shed", static_cast<double>(r.shed)},
        {"rejected", static_cast<double>(r.rejected)},
        {"budget_exhausted", static_cast<double>(r.budget_exhausted)},
        {"hedges", static_cast<double>(r.hedges)},
        {"hedge_cancels", static_cast<double>(r.hedge_cancels)},
        {"capped_rejects", static_cast<double>(r.capped_rejects)},
        {"breaker_trips", static_cast<double>(r.breaker_trips)},
        {"oracle_executions", static_cast<double>(r.oracle.executions)},
        {"oracle_double_exec", static_cast<double>(r.oracle.double_executions)},
        {"oracle_cross_boot_reexec",
         static_cast<double>(r.oracle.cross_boot_reexecutions)},
        {"oracle_silent", static_cast<double>(r.oracle.silent)},
        {"oracle_admitted", static_cast<double>(r.oracle.admitted)},
        {"oracle_admitted_success_ppm",
         static_cast<double>(r.oracle.admitted_success_ppm)},
        {"oracle_hedged", static_cast<double>(r.oracle.hedged)},
        {"oracle_hedged_duplicate_executions",
         static_cast<double>(r.oracle.hedged_duplicate_executions)},
    };
    out.events_fired = r.events_fired;
    out.latency_hist = r.rtt;
    std::string& ej = out.extra_json;
    // Per-replica share, from the client-side VPOOL counters.
    ej += "\"replica_calls\": {";
    for (size_t i = 0; i < r.replica_calls.size(); ++i) {
      if (i > 0) {
        ej += ", ";
      }
      ej += "\"r" + std::to_string(i) + "_calls\": " + std::to_string(r.replica_calls[i]);
    }
    ej += "}";
    // Failover timeline, attributed by issue time against the crash window.
    if (spec.faults.HasCrashClauses() || spec.crash_at != 0 || spec.restart_at != 0) {
      static const char* kPhaseNames[3] = {"pre", "outage", "post"};
      ej += ", \"failover_phases\": {";
      for (int p = 0; p < 3; ++p) {
        const DatacenterResult::Phase& ph = r.phases[p];
        if (p > 0) {
          ej += ", ";
        }
        ej += std::string("\"") + kPhaseNames[p] + "\": {";
        ej += "\"issued\": " + std::to_string(ph.issued);
        ej += ", \"completed\": " + std::to_string(ph.completed);
        ej += ", \"failed\": " + std::to_string(ph.failed);
        ej += ", \"success_ppm\": " + std::to_string(ph.success_ppm);
        ej += "}";
      }
      ej += "}";
    }
    // IP forwarding through the core router (satellite view of the multi-hop
    // path: every request and reply crosses it).
    ej += ", \"routers\": [";
    for (size_t i = 0; i < r.routers.size(); ++i) {
      const DatacenterResult::RouterStat& rt = r.routers[i];
      if (i > 0) {
        ej += ", ";
      }
      ej += "{\"name\": \"" + rt.name + "\"";
      ej += ", \"forwards\": " + std::to_string(rt.forwards);
      ej += ", \"ttl_drops\": " + std::to_string(rt.ttl_drops);
      ej += ", \"no_route_drops\": " + std::to_string(rt.no_route_drops);
      ej += "}";
    }
    ej += "], \"segments\": [";
    for (size_t i = 0; i < r.segments.size(); ++i) {
      const DatacenterResult::SegStat& st = r.segments[i];
      if (i > 0) {
        ej += ", ";
      }
      ej += "{\"segment\": " + std::to_string(st.segment);
      ej += ", \"frames\": " + std::to_string(st.frames);
      ej += ", \"bytes\": " + std::to_string(st.bytes);
      ej += ", \"utilization_ppm\": " + std::to_string(st.utilization_ppm);
      ej += ", \"queued_frames\": " + std::to_string(st.queued_frames);
      ej += ", \"peak_queue_depth\": " + std::to_string(st.peak_queue_depth);
      ej += ", \"wait_p99_ns\": " + std::to_string(st.wait_p99_ns);
      ej += ", \"frames_dropped\": " + std::to_string(st.frames_dropped);
      ej += ", \"down_drops\": " + std::to_string(st.down_drops);
      ej += ", \"fault_drops\": " + std::to_string(st.fault_drops);
      ej += "}";
    }
    ej += "]";
    return out;
  };
  return Job{"datacenter", std::move(name), std::move(fn)};
}

// Connection-scale: N live sessions per side on pooled storage, a strided
// echo sample with the population resident, then a timer-driven idle drain.
// All simulated metrics (charged cost, evictions, slab and map geometry) are
// deterministic; the wall-clock and RSS observations ride host_metrics so
// --stable byte-identity is preserved.
Job SessionScaleJob(std::string name, SessionScaleSpec spec) {
  JobFn fn = [spec] {
    const SessionScaleBench b = MeasureSessionScale(spec);
    JobResult out;
    out.metrics = {
        {"sessions", static_cast<double>(b.sessions)},
        {"cycles", static_cast<double>(b.cycles)},
        {"completed", static_cast<double>(b.completed)},
        {"sim_cpu_ns_per_call", b.sim_cpu_ns_per_call},
        {"client_evicted", static_cast<double>(b.client_evicted)},
        {"server_evicted", static_cast<double>(b.server_evicted)},
        {"client_live_peak", static_cast<double>(b.client_live_peak)},
        {"client_live_after", static_cast<double>(b.client_live_after)},
        {"server_live_after", static_cast<double>(b.server_live_after)},
        {"client_slots", static_cast<double>(b.client_slots)},
        {"client_high_water", static_cast<double>(b.client_high_water)},
        {"map_capacity_peak", static_cast<double>(b.map_capacity_peak)},
        {"map_tombstones_after", static_cast<double>(b.map_tombstones_after)},
        {"map_max_probe_peak", static_cast<double>(b.map_max_probe_peak)},
        {"elapsed_sim_ms", ToMsec(b.elapsed)},
    };
    out.host_metrics = {
        {"setup_wall_ms", b.setup_wall_ms},
        {"call_wall_ns", b.call_wall_ns},
        {"call_wall_cold_ns", b.call_wall_cold_ns},
        {"rss_mb_after_setup", b.rss_mb_after_setup},
        {"rss_mb_first_cycle", b.rss_mb_first_cycle},
        {"rss_mb_after_drain", b.rss_mb_after_drain},
    };
    out.events_fired = b.events_fired;
    out.latency_hist = b.rtt;
    return out;
  };
  return Job{"session_scale", std::move(name), std::move(fn)};
}

// The shared saturation-sweep topology: 2 client segments x 2 clients each,
// 4 replicas round-robin. Rates chosen from the measured load curve (see
// EXPERIMENTS.md): 100 cps/client is comfortably sub-saturation, 160 is the
// knee, 400 collapses the pool. The 600ms horizon gives each client enough
// calls (~60 at the low rate) that the aligned round-robin remainders -- every
// client starts at replica 0 -- stay under a 10% share spread.
DatacenterSpec SaturationSpec(double rate_cps) {
  DatacenterSpec spec;
  spec.client_segments = 2;
  spec.clients_per_segment = 2;
  spec.replicas = 4;
  std::string error;
  const std::string text =
      "poisson:rate=" + std::to_string(static_cast<int>(rate_cps)) + ",horizon=600ms,seed=7";
  if (!ArrivalSpec::Parse(text, &spec.arrivals, &error)) {
    std::abort();  // a literal spec above is malformed; unreachable
  }
  return spec;
}

std::vector<Job> BuildJobs() {
  auto m_eth = [](HostStack& h) { return BuildMRpc(h, Delivery::kEth); };
  auto m_ip = [](HostStack& h) { return BuildMRpc(h, Delivery::kIp); };
  auto m_vip = [](HostStack& h) { return BuildMRpc(h, Delivery::kVip); };
  auto l_vip = [](HostStack& h) { return BuildLRpc(h, Delivery::kVip); };
  auto l_dyn = [](HostStack& h) { return BuildLRpcDynamic(h); };

  std::vector<Job> jobs;
  // Table I: Evaluating VIP.
  jobs.push_back(MeasureJob("table1_vip", "N_RPC", m_eth, HostEnv::kNativeSprite));
  jobs.push_back(MeasureJob("table1_vip", "M_RPC-ETH", m_eth));
  jobs.push_back(MeasureJob("table1_vip", "M_RPC-IP", m_ip));
  jobs.push_back(MeasureJob("table1_vip", "M_RPC-VIP", m_vip));
  // Table II: Monolithic versus Layered RPC (M_RPC-VIP is shared with Table I).
  jobs.push_back(MeasureJob("table2_layering", "L_RPC-VIP", l_vip));
  // Section 4.3: Dynamically Removing Layers.
  jobs.push_back(MeasureJob("sec43_dynamic", "SELECT-CHANNEL-VIPsize", l_dyn));
  // Table III: Cost of Individual RPC Layers.
  jobs.push_back(PartialLatencyJob("VIP", 0));
  jobs.push_back(PartialLatencyJob("FRAGMENT-VIP", 1));
  jobs.push_back(PartialLatencyJob("CHANNEL-FRAGMENT-VIP", 2));
  jobs.push_back(Job{"table3_layer_costs", "FRAGMENT-throughput", [] {
                       FragmentThroughput f = MeasureFragmentThroughput();
                       JobResult out;
                       out.metrics = {{"throughput_kbs", f.kbytes_per_sec}};
                       out.events_fired = f.events_fired;
                       return out;
                     }});
  // Section 1: UDP/IP user-to-user, x-kernel vs SunOS.
  jobs.push_back(UdpJob("UDP-xkernel", HostEnv::kXKernel));
  jobs.push_back(UdpJob("UDP-sunos", HostEnv::kSunOs));
  // Throughput sweep, 1k..16k for every stack.
  jobs.push_back(SweepJob("M_RPC-ETH", m_eth));
  jobs.push_back(SweepJob("M_RPC-IP", m_ip));
  jobs.push_back(SweepJob("M_RPC-VIP", m_vip));
  jobs.push_back(SweepJob("L_RPC-VIP", l_vip));
  jobs.push_back(SweepJob("L_RPC-VIPsize", l_dyn));
  jobs.push_back(SweepJob("N_RPC", m_eth, HostEnv::kNativeSprite));
  // Ablations.
  jobs.push_back(HeaderAllocJob("pointer-adjust", HeaderAllocPolicy::kPointerAdjust));
  jobs.push_back(HeaderAllocJob("alloc-per-header", HeaderAllocPolicy::kPerLayerAlloc));
  jobs.push_back(ColdWarmJob("M_RPC-VIP", m_vip));
  jobs.push_back(ColdWarmJob("L_RPC-VIP", l_vip));
  jobs.push_back(ColdWarmJob("SELECT-CHANNEL-VIPsize", l_dyn));
  // The many-host workload, clean and with link faults.
  jobs.push_back(ManyHostJob());
  jobs.push_back(ManyHostFaultsJob());
  jobs.push_back(ManyHostTracedJob());
  // The engine hot-path microbench (event churn + frame bursts).
  jobs.push_back(HotLoopJob());
  // Chaos campaigns: availability under declared fault plans, verified by the
  // at-most-once oracle. The server crash lands mid-workload; the 400ms
  // outage exceeds CHANNEL's 5x50ms retry budget, so the call spanning it
  // surfaces a failure instead of riding it out.
  {
    ChaosSpec crash_spec;
    crash_spec.calls = 250;
    crash_spec.gap = Msec(2);
    crash_spec.crash_at = Msec(300);
    FaultPlan crash_plan;
    crash_plan.Crash("server", Msec(300), Msec(700));
    jobs.push_back(ChaosJob("server-crash", crash_plan, crash_spec));
    jobs.push_back(ChaosJob("server-crash-adaptive-rto", crash_plan, crash_spec,
                            /*adaptive_rto=*/true));

    ChaosSpec part_spec;
    part_spec.calls = 200;
    part_spec.gap = Msec(2);
    FaultPlan part_plan;
    part_plan.Partition(0, Msec(200), Msec(450));
    jobs.push_back(ChaosJob("partition-heal", part_plan, part_spec));

    ChaosSpec loss_spec;
    loss_spec.calls = 200;
    loss_spec.gap = Msec(2);
    FaultPlan loss_plan;
    loss_plan.seed = 9;
    loss_plan.GilbertElliott(0, 0, 0, /*p_enter=*/0.02, /*p_exit=*/0.25,
                             /*loss_good=*/0.001, /*loss_bad=*/0.7);
    jobs.push_back(ChaosJob("bursty-loss", loss_plan, loss_spec));
  }
  // Datacenter cluster workloads: replica pools behind VPOOL, open-loop
  // arrivals, all traffic through the core router. The saturation sweep
  // brackets the pool's knee; the chaos variant crashes a replica mid-run
  // and reports the failover timeline.
  {
    jobs.push_back(DatacenterJob("sat-low", SaturationSpec(100)));
    jobs.push_back(DatacenterJob("sat-knee", SaturationSpec(160)));
    jobs.push_back(DatacenterJob("sat-overload", SaturationSpec(400)));

    // Bursty on-off arrivals: 280 cps during the on phase (past the knee),
    // idle during the off phase. The mean load (140 cps) is comfortably
    // sub-saturation, yet the on-phase queueing stretches p99 to ~2x what a
    // Poisson process at the same mean produces -- the open-loop burst story.
    DatacenterSpec bursty = SaturationSpec(100);
    std::string error;
    if (!ArrivalSpec::Parse(
            "onoff:rate=280,off_rate=0,on=25ms,off=25ms,horizon=600ms,seed=7",
            &bursty.arrivals, &error)) {
      std::abort();  // literal spec; unreachable
    }
    jobs.push_back(DatacenterJob("bursty-onoff", std::move(bursty)));

    // Replica crash and restart, verified by the at-most-once oracle; the
    // restart gap exceeds CHANNEL's retry budget so in-flight calls fail over
    // rather than ride it out. Mirrors ReplicaCrashFailoverRecoversAfterRestart.
    DatacenterSpec crash;
    crash.client_segments = 2;
    crash.clients_per_segment = 1;
    crash.replicas = 3;
    crash.readmit_after = Msec(120);
    if (!ArrivalSpec::Parse("poisson:rate=100,horizon=900ms,seed=17", &crash.arrivals,
                            &error)) {
      std::abort();  // literal spec; unreachable
    }
    crash.faults.Crash("s0", Msec(80), Msec(500));
    jobs.push_back(DatacenterJob("replica-crash-failover", std::move(crash)));

    // The same 400 cps/client overload that collapses sat-overload, with the
    // overload-control layer on: per-call deadlines propagated in the CHANNEL
    // header, a client retry budget, server admission control, and per-replica
    // concurrency caps at the VPOOL. Calls the pool cannot serve in time are
    // turned away cheaply (BUSY / DEADLINE_EXCEEDED) instead of queueing into
    // collapse, so goodput holds near the knee and admitted calls still
    // succeed -- graceful degradation instead of congestion collapse.
    DatacenterSpec controlled = SaturationSpec(400);
    controlled.deadline = Msec(30);
    controlled.retry_ratio_ppm = 100000;  // 0.1 retries per call
    controlled.retry_burst = 5;
    controlled.concurrency_cap = 1;
    controlled.max_inflight = 0;  // echo replicas serve inline; backlog governs
    controlled.max_backlog = Msec(5);
    jobs.push_back(DatacenterJob("sat-overload-controlled", std::move(controlled)));

    // Replica crash with hedged requests: after the client's own p99 (seeded
    // with a 15ms base delay), a second attempt goes to a different replica.
    // Calls whose primary pick died complete on the hedge instead of waiting
    // out CHANNEL's full retransmission ladder; the oracle separates the
    // resulting benign hedged_duplicate_executions from true double
    // executions, so the run still proves at-most-once per attempt path.
    DatacenterSpec hedged;
    hedged.client_segments = 2;
    hedged.clients_per_segment = 1;
    hedged.replicas = 3;
    hedged.readmit_after = Msec(120);
    if (!ArrivalSpec::Parse("poisson:rate=100,horizon=900ms,seed=17", &hedged.arrivals,
                            &error)) {
      std::abort();  // literal spec; unreachable
    }
    hedged.faults.Crash("s0", Msec(80), Msec(500));
    hedged.hedge_delay = Msec(15);
    jobs.push_back(DatacenterJob("hedged-crash-failover", std::move(hedged)));
  }
  // Connection scale: pooled session storage under growing populations, plus
  // a churn soak whose slab capacity (and RSS) must plateau across cycles.
  // 10^6 sessions run the same harness via --session-scale=1000000 (too heavy
  // for the default suite, which check.sh replays under ASan).
  {
    SessionScaleSpec n1e3;
    n1e3.sessions = 1000;
    jobs.push_back(SessionScaleJob("n1e3", n1e3));
    SessionScaleSpec n1e4;
    n1e4.sessions = 10000;
    jobs.push_back(SessionScaleJob("n1e4", n1e4));
    SessionScaleSpec n1e5;
    n1e5.sessions = 100000;
    jobs.push_back(SessionScaleJob("n1e5", n1e5));
    SessionScaleSpec soak;
    soak.sessions = 20000;
    soak.calls = 64;
    soak.cycles = 3;
    jobs.push_back(SessionScaleJob("soak", soak));
  }
  return jobs;
}

// --- JSON emission -------------------------------------------------------------

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
}

void AppendJsonNumber(std::string& out, double v, const char* fmt = "%.10g") {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out += buf;
}

std::string ToJson(const std::vector<Job>& jobs, const std::vector<JobResult>& results,
                   unsigned threads, double wall_ms, bool stable) {
  double serial_ms = 0;
  uint64_t events_total = 0;
  for (const JobResult& r : results) {
    serial_ms += r.wall_ms;
    events_total += r.events_fired;
  }
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": 2,\n";
  out += "  \"suite\": \"xkernel-rpc-bench\",\n";
  out += "  \"jobs\": " + std::to_string(jobs.size());
  // --stable: only simulated (deterministic) quantities -- no wall clock, no
  // thread counts -- so two stable files from any machine can be compared
  // with cmp(1).
  if (!stable) {
    out += ",\n  \"threads\": " + std::to_string(threads);
    out += ",\n  \"wall_ms\": ";
    AppendJsonNumber(out, wall_ms, "%.1f");
    out += ",\n  \"serial_estimate_ms\": ";
    AppendJsonNumber(out, serial_ms, "%.1f");
    out += ",\n  \"parallel_speedup\": ";
    AppendJsonNumber(out, wall_ms > 0 ? serial_ms / wall_ms : 0, "%.2f");
  }
  out += ",\n  \"events_fired_total\": " + std::to_string(events_total);
  if (!stable) {
    out += ",\n  \"events_per_sec\": ";
    AppendJsonNumber(out,
                     wall_ms > 0 ? static_cast<double>(events_total) / (wall_ms / 1000.0) : 0,
                     "%.0f");
  }
  out += ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    out += "    {\"group\": ";
    AppendJsonString(out, r.group);
    out += ", \"name\": ";
    AppendJsonString(out, r.name);
    if (!stable) {
      out += ", \"wall_ms\": ";
      AppendJsonNumber(out, r.wall_ms, "%.1f");
      for (const Metric& m : r.host_metrics) {
        out += ", ";
        AppendJsonString(out, m.name);
        out += ": ";
        AppendJsonNumber(out, m.value);
      }
    }
    out += ", \"events_fired\": " + std::to_string(r.events_fired);
    out += ", \"metrics\": {";
    for (size_t m = 0; m < r.metrics.size(); ++m) {
      if (m > 0) {
        out += ", ";
      }
      AppendJsonString(out, r.metrics[m].name);
      out += ": ";
      AppendJsonNumber(out, r.metrics[m].value);
    }
    out += "}";
    if (r.latency_hist.count() > 0) {
      out += ", ";
      AppendPercentilesMsJson(out, r.latency_hist, "percentiles");
    }
    if (r.service_hist.count() > 0) {
      out += ", ";
      AppendPercentilesMsJson(out, r.service_hist, "service_percentiles");
    }
    if (!r.extra_json.empty()) {
      out += ", " + r.extra_json;
    }
    out += "}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

// --- the pool ------------------------------------------------------------------

// "group.name" with anything outside [A-Za-z0-9._-] replaced, so every job
// maps to a distinct, shell-safe file in the --trace= / --pcap= directories.
std::string JobFileStem(const Job& job) {
  std::string s = job.group + "." + job.name;
  for (char& c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '-' && c != '_') {
      c = '_';
    }
  }
  return s;
}

// Flow/folded artifacts are plain strings built off-thread; write-all-or-log.
bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

// Options lives in bench/bench_flags.h so ParseBenchArgs is unit-testable.

std::vector<Job> SelectJobs(const Options& opt, std::string* fault_error,
                            std::string* arrivals_error) {
  std::vector<Job> jobs = BuildJobs();
  if (!opt.faults.empty()) {
    // --faults=SPEC runs the user's own campaign as chaos.custom. The first
    // crash clause (if any) anchors the recovery-latency attribution.
    FaultPlan plan;
    if (!FaultPlan::Parse(opt.faults, &plan, fault_error)) {
      return {};
    }
    ChaosSpec spec;
    spec.calls = 200;
    spec.gap = Msec(2);
    for (const FaultClause& c : plan.clauses) {
      if (c.kind == FaultClause::Kind::kCrash) {
        spec.crash_at = c.at;
        break;
      }
    }
    jobs.push_back(ChaosJob("custom", std::move(plan), spec));
  }
  if (!opt.arrivals.empty()) {
    // --arrivals=SPEC runs the user's own arrival process against the
    // standard saturation topology as datacenter.custom.
    DatacenterSpec spec = SaturationSpec(100);
    if (!ArrivalSpec::Parse(opt.arrivals, &spec.arrivals, arrivals_error)) {
      return {};
    }
    jobs.push_back(DatacenterJob("custom", std::move(spec)));
  }
  if (opt.session_scale > 0) {
    // --session-scale=N runs the connection-scale harness at any population
    // (e.g. 1000000 for the full curve in EXPERIMENTS.md).
    SessionScaleSpec spec;
    spec.sessions = static_cast<size_t>(opt.session_scale);
    jobs.push_back(SessionScaleJob("n" + std::to_string(opt.session_scale), spec));
  }
  if (opt.filter.empty()) {
    return jobs;
  }
  const std::regex re(opt.filter);
  std::vector<Job> kept;
  for (Job& job : jobs) {
    if (std::regex_search(job.group + "." + job.name, re)) {
      kept.push_back(std::move(job));
    }
  }
  return kept;
}

int Run(const Options& opt) {
  const unsigned threads = opt.threads;
  std::vector<Job> jobs;
  std::string fault_error;
  std::string arrivals_error;
  try {
    jobs = SelectJobs(opt, &fault_error, &arrivals_error);
  } catch (const std::regex_error& e) {
    std::fprintf(stderr, "bench_suite: bad --filter regex: %s\n", e.what());
    return 2;
  }
  if (!fault_error.empty()) {
    std::fprintf(stderr, "bench_suite: bad --faults spec: %s\n", fault_error.c_str());
    return 2;
  }
  if (!arrivals_error.empty()) {
    std::fprintf(stderr, "bench_suite: bad --arrivals spec: %s\n", arrivals_error.c_str());
    return 2;
  }
  if (opt.list) {
    for (const Job& job : jobs) {
      std::printf("%s.%s\n", job.group.c_str(), job.name.c_str());
    }
    return 0;
  }
  const std::string& out_path = opt.out_path;
  const std::string& trace_dir = opt.trace_dir;
  const std::string& pcap_dir = opt.pcap_dir;
  const std::string& stats_dir = opt.stats_dir;
  const std::string& flow_dir = opt.flow_dir;
  std::vector<JobResult> results(jobs.size());
  std::atomic<size_t> next{0};

  const auto suite_start = std::chrono::steady_clock::now();
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= jobs.size()) {
        return;
      }
      // Reset per-thread simulation state a previous job on this pool thread
      // may have left behind (the header-alloc ablation switches the policy).
      // It is thread_local, so every pool thread has to reset it -- it does
      // not inherit from main.
      Message::set_default_alloc_policy(HeaderAllocPolicy::kPointerAdjust);
      // One observer pair per job: each job's Internet picks up the
      // thread-default observers at construction, so traces never mix jobs.
      std::unique_ptr<TraceSink> sink;
      std::unique_ptr<PacketCapture> capture;
      std::unique_ptr<StatSampler> sampler;
      // --flow= needs the same records --trace= records, so either flag
      // brings the sink up; --flow alone just skips writing the raw trace.
      if (!trace_dir.empty() || !flow_dir.empty()) {
        sink = std::make_unique<TraceSink>();
        TraceSink::set_thread_default(sink.get());
      }
      if (!pcap_dir.empty()) {
        capture = std::make_unique<PacketCapture>();
        PacketCapture::set_thread_default(capture.get());
      }
      if (!stats_dir.empty()) {
        sampler = std::make_unique<StatSampler>();
        StatSampler::set_thread_default(sampler.get());
      }
      const auto start = std::chrono::steady_clock::now();
      JobResult r = jobs[i].run();
      const auto end = std::chrono::steady_clock::now();
      TraceSink::set_thread_default(nullptr);
      PacketCapture::set_thread_default(nullptr);
      StatSampler::set_thread_default(nullptr);
      if (sink != nullptr && !trace_dir.empty()) {
        (void)sink->WriteFile(trace_dir + "/" + JobFileStem(jobs[i]) + ".trace.jsonl");
      }
      if (sink != nullptr && !flow_dir.empty()) {
        // Stitch the per-call causal graphs observer-side and write both flow
        // artifacts; both are deterministic functions of the (deterministic)
        // trace, so they join the byte-identity gates in scripts/check.sh.
        const causal::FlowAnalysis fa = causal::Stitch(tracetool::Parse(sink->ToJsonl()));
        WriteTextFile(flow_dir + "/" + JobFileStem(jobs[i]) + ".flow.jsonl", causal::ToFlowJsonl(fa));
        WriteTextFile(flow_dir + "/" + JobFileStem(jobs[i]) + ".folded.txt", causal::ToFolded(fa));
      }
      if (capture != nullptr) {
        (void)capture->WriteFile(pcap_dir + "/" + JobFileStem(jobs[i]) + ".pcap.jsonl");
      }
      if (sampler != nullptr) {
        (void)sampler->WriteFile(stats_dir + "/" + JobFileStem(jobs[i]) + ".stats.jsonl");
      }
      r.group = jobs[i].group;
      r.name = jobs[i].name;
      r.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
      results[i] = std::move(r);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  worker();  // the main thread pulls jobs too
  for (std::thread& t : pool) {
    t.join();
  }
  const auto suite_end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(suite_end - suite_start).count();

  const std::string json = ToJson(jobs, results, threads, wall_ms, opt.stable);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_suite: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  double serial_ms = 0;
  for (const JobResult& r : results) {
    serial_ms += r.wall_ms;
  }
  std::printf("bench_suite: %zu jobs on %u threads in %.0f ms "
              "(serial estimate %.0f ms, speedup %.2fx) -> %s\n",
              jobs.size(), threads, wall_ms, serial_ms,
              wall_ms > 0 ? serial_ms / wall_ms : 0.0, out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace xk

int main(int argc, char** argv) {
  xk::Options opt;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  std::string flag_error;
  if (!xk::ParseBenchArgs(argc, argv, &opt, &flag_error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], flag_error.c_str());
    std::fprintf(stderr,
                 "usage: %s [--threads=N] [--out=FILE] [--trace=DIR] [--pcap=DIR]\n"
                 "          [--stats=DIR] [--flow=DIR] [--list] [--filter=REGEX] [--stable]\n"
                 "          [--session-scale=N] (adds a session_scale.nN job at N sessions)\n"
                 "          [--faults=PLAN]   (e.g. crash:host=server,at=300ms,restart=700ms;\n"
                 "                             drop:seg=0,from=0ms,until=200ms,rate=0.05)\n"
                 "          [--arrivals=SPEC] (e.g. poisson:rate=200,horizon=200ms,seed=7 or\n"
                 "                             onoff:rate=400,off_rate=0,on=25ms,off=25ms,\n"
                 "                             horizon=200ms -- runs datacenter.custom)\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  if (!opt.trace_dir.empty()) {
    std::filesystem::create_directories(opt.trace_dir, ec);
  }
  if (!opt.pcap_dir.empty()) {
    std::filesystem::create_directories(opt.pcap_dir, ec);
  }
  if (!opt.stats_dir.empty()) {
    std::filesystem::create_directories(opt.stats_dir, ec);
  }
  if (!opt.flow_dir.empty()) {
    std::filesystem::create_directories(opt.flow_dir, ec);
  }
  return xk::Run(opt);
}
