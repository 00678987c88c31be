// The benchmark suite: every experiment in one binary.
//
// Runs each configuration of the paper's evaluation -- Tables I-III, the
// Section 4.3 dynamic-removal stack, the Section 1 UDP/IP cross-kernel
// comparison, the 1k..16k throughput sweep and both ablations -- plus the
// many-host, chaos, datacenter and session-scale workloads, as independent
// jobs run in order on one thread, one simulated Internet per job. Results
// are written as JSON (BENCH_RESULTS.json) and then printed as the
// paper-vs-measured report.
//
// Isolation rule: each job builds its own Internet (its own EventQueue,
// kernels, and sessions) and leaves nothing behind for the next, so its
// numbers are the same run alone (--filter) as in the full suite.
// Everything reported is simulated: the JSON and stdout are byte-identical
// run to run. Host speed is measured by hostbench/, not here.

#include <cctype>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <utility>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "bench/session_scale.h"
#include "src/cluster/datacenter.h"
#include "src/trace/causal.h"
#include "src/trace/json_util.h"
#include "src/trace/pcap.h"
#include "src/trace/trace.h"

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
  Histogram latency_hist;  // per-call round trips ("percentiles" block)
  Histogram service_hist;  // server-side service times ("service_percentiles")
  std::string extra_json;  // extra deterministic fields, e.g. "segments": [...]
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

Job MeasureJob(std::string group, std::string name, std::string_view spec,
               HostEnv env = HostEnv::kXKernel) {
  JobFn fn = [spec, env] {
    return FromConfig(RpcBench::Measure(spec, env));
  };
  return Job{std::move(group), std::move(name), std::move(fn)};
}

Job PartialLatencyJob(std::string name, std::string_view spec) {
  JobFn fn = [spec] {
    PartialLatency p = MeasurePartialLatency(spec);
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

Job SweepJob(std::string name, std::string_view spec, HostEnv env = HostEnv::kXKernel) {
  JobFn fn = [spec, env] {
    const SweepSeries sweep = MeasureSweep(spec, env);
    const std::vector<double>& per_call = sweep.per_call_ms;
    JobResult out;
    for (size_t kb = 1; kb <= per_call.size(); ++kb) {
      out.metrics.push_back({"per_call_ms_" + std::to_string(kb) + "k", per_call[kb - 1]});
    }
    out.events_fired = sweep.events_fired;
    out.latency_hist = sweep.rtt;
    out.metrics.push_back({"throughput_16k_kbs", 16.0 / (per_call.back() / 1000.0)});
    out.metrics.push_back({"slope_ms_per_kb", (per_call.back() - per_call.front()) / 15.0});
    return out;
  };
  return Job{"throughput_sweep", std::move(name), std::move(fn)};
}

Job HeaderAllocJob(std::string name, HostEnv env) {
  JobFn fn = [env] {
    JobResult out;
    PartialLatency base = MeasurePartialLatency("vip", env);
    PartialLatency chan = MeasurePartialLatency("channel/fragment/vip", env);
    ConfigResult full = RpcBench::Measure(kLRpcVip, env);
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

// Appends a JSON object of integer fields: {"key": value, ...}.
void AppendIntObject(std::string& out,
                     std::initializer_list<std::pair<const char*, int64_t>> fields) {
  const char* sep = "{\"";
  for (const auto& [key, value] : fields) {
    out += sep;
    out += key;
    out += "\": " + std::to_string(value);
    sep = ", \"";
  }
  out += "}";
}

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
  // IP forwarding totals over every host: zero here (no routers in the
  // many-pairs topology), but reported so the datacenter jobs' forwarding
  // accounting has an explicit off-path control.
  std::string& ej = out.extra_json;
  ej += "\"ip\": ";
  AppendIntObject(ej, {{"forwards", b.ip_forwards}, {"ttl_drops", b.ip_ttl_drops},
                       {"no_route_drops", b.ip_no_route_drops}});
  // Per-segment link statistics, all integers: byte-stable.
  ej += ", \"segments\": [";
  for (const SegmentStat& st : b.segments) {
    ej += &st == b.segments.data() ? "" : ", ";
    AppendIntObject(ej, {{"segment", st.segment}, {"frames", st.frames}, {"bytes", st.bytes},
                         {"busy_ns", st.busy_ns}, {"utilization_ppm", st.utilization_ppm},
                         {"queued_frames", st.queued_frames},
                         {"peak_queue_depth", st.peak_queue_depth},
                         {"mean_queue_depth_x1000", st.mean_queue_depth_x1000},
                         {"wait_p50_ns", st.wait_p50_ns}, {"wait_p99_ns", st.wait_p99_ns},
                         {"wait_p999_ns", st.wait_p999_ns}, {"wait_max_ns", st.wait_max_ns},
                         {"frames_dropped", st.frames_dropped}});
  }
  ej += "]";
  return out;
}

// `drop_rate` > 0 drops frames uniformly on every segment: retransmissions
// stretch the latency tail (p999 >> p50), which is what the percentile blocks
// and the regression gate are for.
Job ManyHostJob(std::string name, double drop_rate) {
  JobFn fn = [drop_rate] {
    return ManyHostResult(
        MeasureManyPairsBench(kManyHostPairs, kManyHostBytes, kManyHostIters, drop_rate));
  };
  return Job{"manyhost", std::move(name), std::move(fn)};
}

// Zero-observer-effect check: the same many-pairs workload twice back to
// back -- bare, then with a TraceSink capturing and the causal stitcher
// consuming its output. Recording charges zero simulated cost, so every
// simulated metric must be identical across the two passes: the bare pass
// exists for trace_mismatch, which counts the fields that differed (always 0)
// and rides the baseline so any tracing Heisenberg effect fails the
// regression gate. The host-time cost of tracing is hostbench's
// trace.overhead_pct.
Job ManyHostTracedJob() {
  JobFn fn = [] {
    constexpr int kTracedPairs = 8;
    constexpr int kTracedIters = 25;
    // The runner may have installed a suite-wide sink (--trace); park
    // it so the bare pass is genuinely untraced and the traced pass is
    // measured against a sink this job owns.
    TraceSink* outer = TraceSink::thread_default();
    TraceSink::set_thread_default(nullptr);
    const ManyPairsBench bare = MeasureManyPairsBench(kTracedPairs, kManyHostBytes, kTracedIters);
    TraceSink sink;
    TraceSink::set_thread_default(&sink);
    const ManyPairsBench traced =
        MeasureManyPairsBench(kTracedPairs, kManyHostBytes, kTracedIters);
    TraceSink::set_thread_default(outer);
    const std::string jsonl = sink.ToJsonl();
    const tracetool::TraceFile tf = tracetool::Parse(jsonl);
    const causal::FlowAnalysis fa = causal::Stitch(tf);
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
    return out;
  };
  return Job{"manyhost", "traced", std::move(fn)};
}

Job ColdWarmJob(std::string name, std::string_view spec) {
  JobFn fn = [spec] {
    ColdWarmResult cw = MeasureColdWarm(spec);
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
// deterministic, so chaos jobs are part of the byte-identity checks like
// everything else.
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
// simulated and deterministic, so these jobs ride the byte-identity checks.
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
      ej += i > 0 ? ", " : "";
      ej += "\"r" + std::to_string(i) + "_calls\": " + std::to_string(r.replica_calls[i]);
    }
    ej += "}";
    // Failover timeline, attributed by issue time against the crash window.
    if (spec.faults.HasCrashClauses() || spec.crash_at != 0 || spec.restart_at != 0) {
      static const char* kPhaseNames[3] = {"pre", "outage", "post"};
      ej += ", \"failover_phases\": {";
      for (int p = 0; p < 3; ++p) {
        const DatacenterResult::Phase& ph = r.phases[p];
        ej += std::string(p > 0 ? ", \"" : "\"") + kPhaseNames[p] + "\": ";
        AppendIntObject(ej, {{"issued", ph.issued}, {"completed", ph.completed},
                             {"failed", ph.failed}, {"success_ppm", ph.success_ppm}});
      }
      ej += "}";
    }
    // IP forwarding through the core router (satellite view of the multi-hop
    // path: every request and reply crosses it).
    ej += ", \"routers\": [";
    for (size_t i = 0; i < r.routers.size(); ++i) {
      const DatacenterResult::RouterStat& rt = r.routers[i];
      ej += (i > 0 ? ", {\"name\": \"" : "{\"name\": \"") + rt.name + "\"";
      ej += ", \"forwards\": " + std::to_string(rt.forwards);
      ej += ", \"ttl_drops\": " + std::to_string(rt.ttl_drops);
      ej += ", \"no_route_drops\": " + std::to_string(rt.no_route_drops) + "}";
    }
    ej += "], \"segments\": [";
    for (size_t i = 0; i < r.segments.size(); ++i) {
      const DatacenterResult::SegStat& st = r.segments[i];
      ej += i > 0 ? ", " : "";
      AppendIntObject(ej, {{"segment", st.segment}, {"frames", st.frames}, {"bytes", st.bytes},
                           {"utilization_ppm", st.utilization_ppm},
                           {"queued_frames", st.queued_frames},
                           {"peak_queue_depth", st.peak_queue_depth},
                           {"wait_p99_ns", st.wait_p99_ns}, {"frames_dropped", st.frames_dropped},
                           {"down_drops", st.down_drops}, {"fault_drops", st.fault_drops}});
    }
    ej += "]";
    return out;
  };
  return Job{"datacenter", std::move(name), std::move(fn)};
}

// Connection-scale: N live sessions per side on pooled storage, a strided
// echo sample with the population resident, then a timer-driven idle drain.
// Every metric (charged cost, evictions, slab and map geometry) is simulated
// and deterministic; host-side session cost is hostbench's session-churn.
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
  std::vector<Job> jobs;
  // Table I: Evaluating VIP.
  jobs.push_back(MeasureJob("table1_vip", "N_RPC", kMRpcEth, HostEnv::kNativeSprite));
  jobs.push_back(MeasureJob("table1_vip", "M_RPC-ETH", kMRpcEth));
  jobs.push_back(MeasureJob("table1_vip", "M_RPC-IP", kMRpcIp));
  jobs.push_back(MeasureJob("table1_vip", "M_RPC-VIP", kMRpcVip));
  // Table II: Monolithic versus Layered RPC (M_RPC-VIP is shared with Table I).
  jobs.push_back(MeasureJob("table2_layering", "L_RPC-VIP", kLRpcVip));
  // Section 4.3: Dynamically Removing Layers.
  jobs.push_back(MeasureJob("sec43_dynamic", "SELECT-CHANNEL-VIPsize", kLRpcVipSize));
  // Table III: Cost of Individual RPC Layers.
  jobs.push_back(PartialLatencyJob("VIP", "vip"));
  jobs.push_back(PartialLatencyJob("FRAGMENT-VIP", "fragment/vip"));
  jobs.push_back(PartialLatencyJob("CHANNEL-FRAGMENT-VIP", "channel/fragment/vip"));
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
  jobs.push_back(SweepJob("M_RPC-ETH", kMRpcEth));
  jobs.push_back(SweepJob("M_RPC-IP", kMRpcIp));
  jobs.push_back(SweepJob("M_RPC-VIP", kMRpcVip));
  jobs.push_back(SweepJob("L_RPC-VIP", kLRpcVip));
  jobs.push_back(SweepJob("L_RPC-VIPsize", kLRpcVipSize));
  jobs.push_back(SweepJob("N_RPC", kMRpcEth, HostEnv::kNativeSprite));
  // Ablations.
  jobs.push_back(HeaderAllocJob("pointer-adjust", HostEnv::kXKernel));
  jobs.push_back(HeaderAllocJob("alloc-per-header", HostEnv::kXKernelAllocPerHeader));
  jobs.push_back(ColdWarmJob("M_RPC-VIP", kMRpcVip));
  jobs.push_back(ColdWarmJob("L_RPC-VIP", kLRpcVip));
  jobs.push_back(ColdWarmJob("SELECT-CHANNEL-VIPsize", kLRpcVipSize));
  // The many-host workload, clean and with link faults.
  jobs.push_back(ManyHostJob("L_RPC-VIP-32pairs", 0.0));
  jobs.push_back(ManyHostJob("L_RPC-VIP-32pairs-faults", 0.005));
  jobs.push_back(ManyHostTracedJob());
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
  // a churn soak whose slab capacity and map geometry must plateau across
  // cycles.
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

void AppendJsonNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

std::string ToJson(const std::vector<Job>& jobs, const std::vector<JobResult>& results) {
  uint64_t events_total = 0;
  for (const JobResult& r : results) {
    events_total += r.events_fired;
  }
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": 2,\n";
  out += "  \"suite\": \"xkernel-rpc-bench\",\n";
  out += "  \"jobs\": " + std::to_string(jobs.size());
  out += ",\n  \"events_fired_total\": " + std::to_string(events_total);
  out += ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    out += "    {\"group\": ";
    JsonAppendEscaped(out, r.group);
    out += ", \"name\": ";
    JsonAppendEscaped(out, r.name);
    out += ", \"events_fired\": " + std::to_string(r.events_fired);
    out += ", \"metrics\": {";
    for (size_t m = 0; m < r.metrics.size(); ++m) {
      if (m > 0) {
        out += ", ";
      }
      JsonAppendEscaped(out, r.metrics[m].name);
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

// --- paper-vs-measured report --------------------------------------------------

// A Table I/II row: latency (ms), throughput (KB/s), incremental cost (ms/KB).
struct RpcRef {
  double latency_ms, throughput_kbs, incr_ms_per_kb;
};

// The paper's reference values. Each derived line's reference is computed
// from these by the same formula as its measured value.
constexpr struct {
  RpcRef n_rpc{2.60, 700, 1.20}, m_eth{1.73, 863, 1.04}, m_ip{2.10, 836, 1.05},
      m_vip{1.79, 860, 1.04}, l_vip{1.93, 839, 1.03};
  double vip_size_ms = 1.78;                      // Section 4.3
  double layer_ms[4] = {1.12, 1.33, 1.82, 1.93};  // Table III
  double fragment_kbs = 865;                      // FRAGMENT standalone
  double udp_ms[2] = {2.00, 5.36};                // Section 1: x-kernel, SunOS 4.0
  double min_layer_ms[2] = {0.11, 0.50};          // Section 5: adjust, alloc
} kPaper;

// The suite's metrics by job ("group.name"). A metric of a job that did not
// run reads NaN, and Lines skips any line holding one, so a --filter'd run
// prints exactly the rows and derived lines its jobs measured.
class Results {
 public:
  explicit Results(const std::vector<JobResult>& results) {
    for (const JobResult& r : results) {
      groups_.insert(r.group);
      for (const Metric& m : r.metrics) {
        values_[r.group + "." + r.name + "/" + m.name] = m.value;
      }
    }
  }
  bool Ran(const std::string& group) const { return groups_.count(group) > 0; }
  double operator()(const std::string& job, const std::string& metric = "latency_ms") const {
    const auto it = values_.find(job + "/" + metric);
    return it == values_.end() ? std::nan("") : it->second;
  }

 private:
  std::set<std::string> groups_;
  std::map<std::string, double> values_;
};

bool Measured(double v) { return !std::isnan(v); }
bool Measured(const char*) { return true; }

// Prints report lines, each only when every value on it was measured. The
// heading prints once, before the first line that does.
class Lines {
 public:
  explicit Lines(const char* heading = "") : heading_(heading) {}

  template <typename... Values>
  void operator()(const char* format, Values... values) {
    if ((Measured(values) && ...)) {
      std::printf("%s", std::exchange(heading_, ""));
      std::printf(format, values...);
    }
  }

 private:
  const char* heading_;
};

struct RpcRow {
  const char* label;
  std::string job;
  RpcRef paper;
};

void PrintRpcTable(const Results& r, const char* title, std::initializer_list<RpcRow> rows) {
  std::printf("\n%s\n%-30s %10s %14s %18s\n%-30s %10s %14s %18s\n%s\n", title, "Configuration",
              "Latency", "Throughput", "Incremental Cost", "", "(msec)", "(kbytes/sec)",
              "(msec/1k-bytes)", std::string(76, '-').c_str());
  Lines line;
  for (const RpcRow& row : rows) {
    line("%-30s %10.2f %14.0f %18.2f   [paper: %.2f / %.0f / %.2f]\n", row.label, r(row.job),
         r(row.job, "throughput_kbs"), r(row.job, "incr_ms_per_kb"), row.paper.latency_ms,
         row.paper.throughput_kbs, row.paper.incr_ms_per_kb);
  }
}

// Prints the paper's evaluation as measured, beside the paper's own numbers.
// A table prints when any job of its group ran.
void PrintReport(const std::vector<JobResult>& results) {
  const Results r(results);
  Lines line;
  const RpcRef& p_eth = kPaper.m_eth;
  const std::string eth = "table1_vip.M_RPC-ETH", ip = "table1_vip.M_RPC-IP",
                    vip = "table1_vip.M_RPC-VIP", layered = "table2_layering.L_RPC-VIP",
                    dyn = "sec43_dynamic.SELECT-CHANNEL-VIPsize";
  const auto cpu = [&r](const std::string& job, const char* side) {
    return r(job, std::string(side) + "_cpu_ms");
  };
  if (r.Ran("table1_vip")) {
    PrintRpcTable(r, "Table I: Evaluating VIP",
                  {{"N_RPC", "table1_vip.N_RPC", kPaper.n_rpc}, {"M_RPC-ETH", eth, p_eth},
                   {"M_RPC-IP", ip, kPaper.m_ip}, {"M_RPC-VIP", vip, kPaper.m_vip}});
    const double penalty = kPaper.m_ip.latency_ms - p_eth.latency_ms;
    Lines derived("\nDerived quantities:\n");
    derived("  IP penalty over ETH:   %+.2f ms (%.0f%%)   [paper: %+.2f ms, %.0f%%]\n",
            r(ip) - r(eth), 100.0 * (r(ip) - r(eth)) / r(eth), penalty,
            100.0 * penalty / p_eth.latency_ms);
    derived("  VIP overhead over ETH: %+.2f ms          [paper: %+.2f ms]\n", r(vip) - r(eth),
            kPaper.m_vip.latency_ms - p_eth.latency_ms);
    derived("  CPU per 16k call: ETH %.2f+%.2f  IP %.2f+%.2f  VIP %.2f+%.2f ms "
            "(client+server; VIP < IP expected)\n",
            cpu(eth, "client"), cpu(eth, "server"), cpu(ip, "client"), cpu(ip, "server"),
            cpu(vip, "client"), cpu(vip, "server"));
  }
  if (r.Ran("table2_layering")) {
    PrintRpcTable(r, "Table II: Monolithic RPC versus Layered RPC",
                  {{"M_RPC-VIP", vip, kPaper.m_vip}, {"L_RPC-VIP", layered, kPaper.l_vip}});
    Lines derived("\nDerived quantities:\n");
    derived("  Layering penalty: %+.2f ms        [paper: %+.2f ms]\n", r(layered) - r(vip),
            kPaper.l_vip.latency_ms - kPaper.m_vip.latency_ms);
    derived("  CPU per 16k call (client+server): monolithic %.2f, layered %.2f ms "
            "[paper: layered slightly less]\n",
            cpu(vip, "client") + cpu(vip, "server"),
            cpu(layered, "client") + cpu(layered, "server"));
  }
  if (r.Ran("table3_layer_costs")) {
    std::printf("\nTable III: Cost of Individual RPC Layers\n"
                "%-34s %10s %20s\n%-34s %10s %20s\n%s\n", "Configuration", "Latency",
                "Incremental Cost", "", "(msec)", "(msec/layer)", std::string(70, '-').c_str());
    // The full stack is Table II's layered row, measured with the real anchors.
    const char* names[4] = {"VIP", "FRAGMENT-VIP", "CHANNEL-FRAGMENT-VIP",
                            "SELECT-CHANNEL-FRAGMENT-VIP"};
    const std::string jobs[4] = {"table3_layer_costs.VIP", "table3_layer_costs.FRAGMENT-VIP",
                                 "table3_layer_costs.CHANNEL-FRAGMENT-VIP", layered};
    line("%-34s %10.2f %20s   [paper: %.2f]\n", names[0], r(jobs[0]), "NA", kPaper.layer_ms[0]);
    for (int i = 1; i < 4; ++i) {
      line("%-34s %10.2f %20.2f   [paper: %.2f, %+.2f]\n", names[i], r(jobs[i]),
           r(jobs[i]) - r(jobs[i - 1]), kPaper.layer_ms[i],
           kPaper.layer_ms[i] - kPaper.layer_ms[i - 1]);
    }
    line("\nFRAGMENT standalone throughput: %.0f kbytes/sec   [paper: %.0f]\n",
         r("table3_layer_costs.FRAGMENT-throughput", "throughput_kbs"), kPaper.fragment_kbs);
  }
  if (r.Ran("sec43_dynamic")) {
    PrintRpcTable(r, "Section 4.3: Dynamically Removing Layers",
                  {{"M_RPC-VIP (reference)", vip, kPaper.m_vip},
                   {"SELECT-CHANNEL-FRAGMENT-VIP", layered, kPaper.l_vip}});
    line("%-30s %10.2f %14.0f %18.2f   [paper: %.2f]\n", "SELECT-CHANNEL-VIPsize", r(dyn),
         r(dyn, "throughput_kbs"), r(dyn, "incr_ms_per_kb"), kPaper.vip_size_ms);
    Lines derived("\nDerived quantities:\n");
    derived("  Saved by bypassing FRAGMENT:  %+.2f ms   "
            "[paper: %+.2f ms (%+.2f FRAGMENT + %.2f VIPsize)]\n",
            r(dyn) - r(layered), kPaper.vip_size_ms - kPaper.l_vip.latency_ms,
            kPaper.layer_ms[0] - kPaper.layer_ms[1], kPaper.m_vip.latency_ms - p_eth.latency_ms);
    derived("  Gap to monolithic:            %+.2f ms   [paper: %+.2f ms]\n", r(dyn) - r(vip),
            kPaper.vip_size_ms - kPaper.m_vip.latency_ms);
  }
  if (r.Ran("udp_crosskernel")) {
    const double xk = r("udp_crosskernel.UDP-xkernel"), sunos = r("udp_crosskernel.UDP-sunos");
    std::printf("\nSection 1: UDP/IP user-to-user round trip, x-kernel vs SunOS 4.0\n"
                "%-24s %10s\n%s\n", "Environment", "Latency", std::string(40, '-').c_str());
    line("%-24s %7.2f ms   [paper: %.2f]\n", "x-kernel", xk, kPaper.udp_ms[0]);
    line("%-24s %7.2f ms   [paper: %.2f]\n", "SunOS 4.0 (4.3BSD)", sunos, kPaper.udp_ms[1]);
    line("\nRatio: %.2fx   [paper: %.2fx]\n", sunos / xk, kPaper.udp_ms[1] / kPaper.udp_ms[0]);
  }
  if (r.Ran("throughput_sweep")) {
    std::vector<std::string> series;  // the sweep jobs that ran, one column each
    for (const char* name :
         {"M_RPC-ETH", "M_RPC-IP", "M_RPC-VIP", "L_RPC-VIP", "L_RPC-VIPsize", "N_RPC"}) {
      if (Measured(r(std::string("throughput_sweep.") + name, "slope_ms_per_kb"))) {
        series.push_back(name);
      }
    }
    const auto sweep = [&r](const std::string& name, const std::string& metric) {
      return r("throughput_sweep." + name, metric);
    };
    std::printf("\nThroughput sweep: per-call round trip (ms) vs request size\n%-8s", "size");
    for (const std::string& name : series) {
      std::printf(" %14s", name.c_str());
    }
    std::printf("\n%s\n", std::string(8 + 15 * series.size(), '-').c_str());
    for (size_t kb = 1; kb <= 16; ++kb) {
      std::printf("%-8zu", kb * 1024);
      for (const std::string& name : series) {
        std::printf(" %14.2f", sweep(name, "per_call_ms_" + std::to_string(kb) + "k"));
      }
      std::printf("\n");
    }
    std::printf("\nThroughput at 16k (kbytes/sec):\n");
    for (const std::string& name : series) {
      std::printf("  %-16s %6.0f\n", name.c_str(), sweep(name, "throughput_16k_kbs"));
    }
    std::printf("\nSlope 1k->16k (ms per additional kbyte):\n");
    for (const std::string& name : series) {
      std::printf("  %-16s %6.2f\n", name.c_str(), sweep(name, "slope_ms_per_kb"));
    }
  }
  if (r.Ran("ablation_header_alloc")) {
    std::printf("\nAblation: header buffer scheme (pointer adjust vs per-layer alloc)\n"
                "%-26s %12s %12s %14s %16s\n%s\n", "Scheme", "VIP base", "Full stack",
                "avg/layer", "min/layer(SELECT)", std::string(86, '-').c_str());
    const char* labels[2] = {"pointer-adjust (current)", "alloc-per-header (old)"};
    const std::string jobs[2] = {"ablation_header_alloc.pointer-adjust",
                                 "ablation_header_alloc.alloc-per-header"};
    for (int i = 0; i < 2; ++i) {
      line("%-26s %9.2f ms %9.2f ms %11.2f ms %13.2f ms   [paper: %.2f]\n", labels[i],
           r(jobs[i], "vip_base_ms"), r(jobs[i], "full_stack_ms"),
           r(jobs[i], "avg_per_layer_ms"), r(jobs[i], "min_per_layer_ms"),
           kPaper.min_layer_ms[i]);
    }
  }
  if (r.Ran("ablation_session_cache")) {
    std::printf("\nAblation: session caching (first call vs steady state)\n"
                "%-30s %12s %14s %14s\n%s\n", "Configuration", "first call", "steady state",
                "setup cost", std::string(74, '-').c_str());
    for (const char* name : {"M_RPC-VIP", "L_RPC-VIP", "SELECT-CHANNEL-VIPsize"}) {
      const std::string job = std::string("ablation_session_cache.") + name;
      line("%-30s %9.2f ms %11.2f ms %11.2f ms\n", name, r(job, "first_call_ms"),
           r(job, "steady_state_ms"), r(job, "setup_cost_ms"));
    }
    std::printf("\nA stack that re-established sessions per call would pay the setup cost\n"
                "on EVERY RPC -- the paper's first layering pitfall.\n");
  }
}

// --- the runner ----------------------------------------------------------------

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

// Writes one output file, or warns on stderr naming it and returns false.
// A failed --out write fails the run; a failed observer write does not,
// because observers never change a result.
bool WriteArtifact(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) == 0 && written) {
      return true;
    }
  }
  std::fprintf(stderr, "bench_suite: failed to write %s\n", path.c_str());
  return false;
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
    // The campaign runs on Internet::TwoHosts(): client and server on
    // segment 0. A clause naming anything else would throw or never fire.
    for (const FaultClause& c : plan.clauses) {
      if (c.kind == FaultClause::Kind::kCrash && c.host != "client" && c.host != "server") {
        *fault_error = "unknown host '" + c.host + "' (hosts: client, server)";
        return {};
      }
      if (c.kind != FaultClause::Kind::kCrash && c.segment > 0) {
        *fault_error = "unknown segment " + std::to_string(c.segment) + " (segments: 0)";
        return {};
      }
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
  if (jobs.empty()) {
    std::fprintf(stderr, "bench_suite: --filter='%s' matches no job\n", opt.filter.c_str());
    return 2;
  }
  if (opt.list) {
    for (const Job& job : jobs) {
      std::printf("%s.%s\n", job.group.c_str(), job.name.c_str());
    }
    return 0;
  }
  for (const std::string* dir : {&opt.trace_dir, &opt.pcap_dir}) {
    std::error_code ec;
    if (!dir->empty() && !std::filesystem::create_directories(*dir, ec) && ec) {
      std::fprintf(stderr, "bench_suite: cannot create directory %s: %s\n", dir->c_str(),
                   ec.message().c_str());
    }
  }
  std::vector<JobResult> results(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    // One observer pair per job: each job's Internet picks up the
    // thread-default observers at construction, so traces never mix jobs.
    std::unique_ptr<TraceSink> sink;
    std::unique_ptr<PacketCapture> capture;
    if (!opt.trace_dir.empty()) {
      sink = std::make_unique<TraceSink>();
      TraceSink::set_thread_default(sink.get());
    }
    if (!opt.pcap_dir.empty()) {
      capture = std::make_unique<PacketCapture>();
      PacketCapture::set_thread_default(capture.get());
    }
    JobResult r = jobs[i].run();
    TraceSink::set_thread_default(nullptr);
    PacketCapture::set_thread_default(nullptr);
    const std::string stem = JobFileStem(jobs[i]);
    if (sink != nullptr) {
      WriteArtifact(opt.trace_dir + "/" + stem + ".trace.jsonl", sink->ToJsonl());
    }
    if (capture != nullptr) {
      WriteArtifact(opt.pcap_dir + "/" + stem + ".pcap.jsonl", capture->ToJsonl());
    }
    r.group = jobs[i].group;
    r.name = jobs[i].name;
    results[i] = std::move(r);
  }
  if (!WriteArtifact(opt.out_path, ToJson(jobs, results))) {
    return 1;
  }
  std::printf("bench_suite: %zu jobs -> %s\n", jobs.size(), opt.out_path.c_str());
  PrintReport(results);
  return 0;
}

}  // namespace
}  // namespace xk

int main(int argc, char** argv) {
  xk::Options opt;
  std::string flag_error;
  if (!xk::ParseBenchArgs(argc, argv, &opt, &flag_error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], flag_error.c_str());
    std::fprintf(stderr,
                 "usage: %s [--out=FILE] [--trace=DIR] [--pcap=DIR]\n"
                 "          [--list] [--filter=REGEX]\n"
                 "          [--session-scale=N] (adds a session_scale.nN job at N sessions)\n"
                 "          [--faults=PLAN]   (e.g. crash:host=server,at=300ms,restart=700ms;\n"
                 "                             drop:seg=0,from=0ms,until=200ms,rate=0.05)\n"
                 "          [--arrivals=SPEC] (e.g. poisson:rate=200,horizon=200ms,seed=7 or\n"
                 "                             onoff:rate=400,off_rate=0,on=25ms,off=25ms,\n"
                 "                             horizon=200ms -- runs datacenter.custom)\n",
                 argv[0]);
    return 2;
  }
  return xk::Run(opt);
}
