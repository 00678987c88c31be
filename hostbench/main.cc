// hostbench: how fast the simulator runs, end to end and layer by layer.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE [--spans-out FILE]
//   hostbench --record-reference
//
// --trace 0 runs episodes of the workload for S seconds, untraced, and
// reports the end-to-end metrics. --trace 1 alternates untraced and traced
// episodes (spans around every call into the simulator), checks that both
// simulate exactly the same thing, runs the layer ladder, and reports the
// per-layer metrics; with --spans-out it writes the spans there, one JSON
// object a line, when it ends. Every run checks the workload's invariants
// and that the simulation reproduces the digests in the --reference file
// (see CheckReference). The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 on success, 1 when a correctness check fails, 2 on usage.
//
// --record-reference prints the reference digests of seeds 0 to
// kReferenceSeeds - 1 for every workload, in the format --reference reads.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hostbench/ladder.h"
#include "hostbench/spans.h"
#include "hostbench/workloads.h"

namespace hostbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string reference;
  std::string spans_out;
  bool record = false;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\n"
               "usage: hostbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 --reference FILE [--spans-out FILE]\n"
               "       hostbench --record-reference\n"
               "workloads:",
               why);
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  const char* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && p == end && !s.empty();
}

bool ParseArgs(int argc, char** argv, Options* o, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--record-reference") {
      o->record = true;
      continue;
    }
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + key;
      return false;
    }
    uint64_t n = 0;
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      if (!ParseU64(value, &o->seed)) {
        *error = "--seed wants a non-negative integer, got '" + value + "'";
        return false;
      }
    } else if (key == "--seconds") {
      char* end = nullptr;
      o->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o->seconds > 0) || o->seconds > 600) {
        *error = "--seconds wants a number in (0, 600], got '" + value + "'";
        return false;
      }
    } else if (key == "--trace") {
      if (!ParseU64(value, &n) || n > 1) {
        *error = "--trace wants 0 or 1, got '" + value + "'";
        return false;
      }
      o->trace = static_cast<int>(n);
    } else if (key == "--reference") {
      o->reference = value;
    } else if (key == "--spans-out") {
      o->spans_out = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
  }
  return true;
}

// Episodes of one phase of a run, and what they add up to.
struct Phase {
  // The fastest host ns of each step and of each part of the run phase, over
  // the episodes (KeepFastest).
  std::vector<double> step_min_ns;
  std::vector<double> op_min_ns;
  std::vector<double> bytes_per_session;
  EpisodeStats total;  // counters summed over episodes (setup_s unused)
  Digest digest;       // every episode's digest; they must all be equal
  int episodes = 0;
  std::string error;
};

// Runs one more episode of `p` (traced when `rec` is set). Checks its
// invariants and that it reproduces the phase's first digest; false, with
// p->error set, when either fails.
bool RunEpisode(const Workload& w, uint64_t seed, SpanRecorder* rec, Phase* p) {
  EpisodeStats e;
  {
    Scope episode(rec, "episode", static_cast<uint64_t>(p->episodes));
    e = w.run(seed, Scale{}, rec);
  }
  if (!e.error.empty()) {
    p->error = e.error;
    return false;
  }
  if (p->episodes == 0) {
    p->digest = e.digest;
  } else if (const std::string field = p->digest.FirstDifference(e.digest); !field.empty()) {
    p->error = std::string(w.name) + " seed " + std::to_string(seed) + ": episode " +
               std::to_string(p->episodes) + " digest field '" + field +
               "' differs from episode 0: the simulation is not deterministic";
    return false;
  }
  ++p->episodes;
  KeepFastest(e.step_ns, &p->step_min_ns);
  KeepFastest(e.op_ns, &p->op_min_ns);
  if (e.bytes_per_session > 0) {
    p->bytes_per_session.push_back(e.bytes_per_session);
  }
  EpisodeStats& t = p->total;
  t.ops += e.ops;
  t.attempted += e.attempted;
  t.failed += e.failed;
  t.run_events += e.run_events;
  t.step_events += e.step_events;
  t.run_frames += e.run_frames;
  t.crossings += e.crossings;
  t.map_hits += e.map_hits;
  t.map_misses += e.map_misses;
  t.fragments += e.fragments;
  t.retransmits += e.retransmits;
  t.opens += e.opens;
  t.evictions += e.evictions;
  t.map_probe_max = std::max(t.map_probe_max, e.map_probe_max);
  return true;
}

// An episode's operations over the sum of its parts' fastest host times.
// Every episode completes the same operations.
double OpsPerS(const Phase& p) {
  double ns = 0;
  for (double part : p.op_min_ns) {
    ns += part;
  }
  return ns > 0 ? static_cast<double>(p.total.ops) / p.episodes / ns * 1e9 : 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %14s %s\n", m.name.c_str(), Number(m.value).c_str(), m.unit);
  }
}

// A failed correctness check: say what failed, still end with a result line.
int Fail(const std::string& why, uint64_t attempted, uint64_t failed) {
  std::fprintf(stderr, "hostbench: FAILED: %s\n", why.c_str());
  std::printf("hostbench: FAILED: %s\n", why.c_str());
  PrintResult(false, std::max<uint64_t>(attempted, 1), failed, {});
  return 1;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string CheckDigest(const Options& o, const Workload& w, const ReferenceTable& ref,
                        const Digest& d) {
  std::string why = CheckReference(ref, w, o.seed, d);
  if (why.empty()) {
    const uint64_t recorded = o.seed % kReferenceSeeds;
    std::printf("  digest %s (%s)\n", d.ToString().c_str(),
                ref.count({o.workload, o.seed}) != 0
                    ? "matches the reference"
                    : ("unrecorded seed; recorded seed " + std::to_string(recorded) +
                       " reproduced its reference")
                          .c_str());
  }
  return why;
}

// On a shared machine other tenants slow one CPU at a time, by up to half,
// for seconds to minutes. Moving to the next CPU the process may use before
// each episode lets the fastest times come from the quiet CPUs, instead of
// every sample coming from the one CPU the run happened to start on.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          cpus_.push_back(c);
        }
      }
    }
  }

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

int RunEndToEnd(const Options& o, const Workload& w, const ReferenceTable& ref) {
  // Set-up is timed on its own: before each episode, a burst of builds with a
  // token run phase, so each build finds the caches as the build before it
  // left them rather than as a full run phase did. The fastest tenth leaves
  // out the first, cold build of each burst.
  constexpr int kSetupBuilds = 16;
  std::vector<double> setup_s;
  Phase p;
  CpuRotation cpus;
  const Ns deadline = NowNs() + static_cast<Ns>(o.seconds * 1e9);
  while (p.error.empty() && (p.episodes < 3 || NowNs() < deadline)) {
    cpus.Next();
    for (int i = 0; i < kSetupBuilds && p.error.empty(); ++i) {
      const EpisodeStats e = w.run(o.seed, Scale::SetupOnly(), nullptr);
      p.error = e.error;
      setup_s.push_back(e.setup_s);
    }
    if (p.error.empty()) {
      RunEpisode(w, o.seed, nullptr, &p);
    }
  }
  if (!p.error.empty()) {
    return Fail(p.error, p.total.attempted, p.total.failed + 1);
  }
  if (std::string why = CheckDigest(o, w, ref, p.digest); !why.empty()) {
    return Fail(why, p.total.attempted, p.total.failed);
  }
  const std::vector<Metric> metrics = {
      {"setup_s", FastTime(setup_s), "s"},
      {"ops_per_s", OpsPerS(p), "1/s"},
      {"step_us_p50", Quantile(p.step_min_ns, 0.50) / 1000, "us"},
      {"step_us_p99", Quantile(p.step_min_ns, 0.99) / 1000, "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::printf("  %d episodes; each step and each part of the run phase at its fastest; step "
              "percentiles over %zu steps\n",
              p.episodes, p.step_min_ns.size());
  PrintMetrics(metrics);
  std::printf("  %-24s %14s ppm (%llu of %llu attempted)\n", "failed_ppm",
              Number(Ratio(1e6 * static_cast<double>(p.total.failed),
                           static_cast<double>(p.total.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(p.total.failed),
              static_cast<unsigned long long>(p.total.attempted));
  PrintResult(true, p.total.attempted, p.total.failed, metrics);
  return 0;
}

void PrintLadder(const LadderResult& lad) {
  std::printf("  layer ladder: host ns per null round trip (fastest tenth of batches), simulated "
              "round trip alongside\n");
  std::printf("    %-14s %12s %12s %10s\n", "rung", "host ns", "sim ms", "trips");
  for (const RungResult& r : lad.rungs) {
    std::printf("    %-14s %12.1f %12.4f %10llu\n", r.name, r.host_ns, r.sim_ms,
                static_cast<unsigned long long>(r.round_trips));
  }
  std::printf("    %-24s %-36s %12s %12s\n", "layer", "rung - base", "host ns", "sim ms");
  for (const LadderMetric& m : lad.metrics) {
    const std::string span =
        std::string(m.rung) + (m.base != nullptr ? std::string(" - ") + m.base : "") +
        (m.divisor != 1 ? " (per KB)" : "");
    std::printf("    %-24s %-36s %12.1f %12.4f\n", m.metric, span.c_str(), m.value, m.sim_ms);
  }
}

double FastSeconds(const SpanRecorder& rec, const char* name) {
  std::vector<double> v;
  for (Ns d : rec.Durations(name)) {
    v.push_back(static_cast<double>(d) * 1e-9);
  }
  return FastTime(v);
}

double SelfNsPer(const SpanRecorder& rec, const char* name, double per) {
  return Ratio(static_cast<double>(rec.Summarize(name).self), per);
}

int RunPerLayer(const Options& o, const Workload& w, const ReferenceTable& ref) {
  // S seconds: up to 60% for untraced and traced episodes, alternating on
  // the same CPU so drift in the host hits both alike, until the recorder
  // holds the span budget; the rest for the ladder.
  constexpr size_t kSpanBudget = 400000;
  Phase a;
  Phase b;
  SpanRecorder rec;
  CpuRotation cpus;
  const Ns start = NowNs();
  const Ns deadline = start + static_cast<Ns>(0.6 * o.seconds * 1e9);
  while (b.episodes < 2 || (NowNs() < deadline && rec.spans().size() < kSpanBudget)) {
    cpus.Next();
    if (!RunEpisode(w, o.seed, nullptr, &a) || !RunEpisode(w, o.seed, &rec, &b)) {
      break;
    }
  }
  const uint64_t attempted = a.total.attempted + b.total.attempted;
  const uint64_t failed = a.total.failed + b.total.failed;
  if (!a.error.empty() || !b.error.empty()) {
    return Fail(a.error.empty() ? b.error : a.error, attempted, failed + 1);
  }
  if (const std::string field = a.digest.FirstDifference(b.digest); !field.empty()) {
    return Fail(o.workload + " seed " + std::to_string(o.seed) + ": traced digest field '" +
                    field + "' differs from the untraced run: tracing changed the simulation",
                attempted, failed);
  }
  if (std::string why = CheckDigest(o, w, ref, b.digest); !why.empty()) {
    return Fail(why, attempted, failed);
  }
  const double left_s = o.seconds - static_cast<double>(NowNs() - start) * 1e-9;
  const LadderResult lad = RunLadder(std::max(0.4 * o.seconds, left_s), &rec);
  if (!lad.error.empty()) {
    return Fail(lad.error, attempted, failed + 1);
  }

  const EpisodeStats& t = b.total;
  const auto ops = static_cast<double>(t.ops);
  const SpanRecorder::Totals push = rec.Summarize("push");
  const SpanRecorder::Totals run_all = rec.Summarize("run_all");
  // Host time inside the event loop, per event: the steps' RunAll/RunUntil
  // and the drain after the last step.
  Ns loop_ns = 0;
  for (const char* name : {"run_all", "run_until", "drain"}) {
    loop_ns += rec.Summarize(name).total;
  }
  std::vector<Metric> metrics = {
      {"sim.ns_per_event", Ratio(static_cast<double>(loop_ns), static_cast<double>(t.step_events)),
       "ns"},
      {"sim.events_per_op", Ratio(static_cast<double>(t.run_events), ops), "count"},
      {"sim.frames_per_op", Ratio(static_cast<double>(t.run_frames), ops), "count"},
      {"core.crossings_per_op", Ratio(static_cast<double>(t.crossings), ops), "count"},
      {"core.open_ns", SelfNsPer(rec, "open", static_cast<double>(t.opens)), "ns"},
      {"core.evict_ns",
       Ratio(static_cast<double>(rec.Summarize("evict").total), static_cast<double>(t.evictions)),
       "ns"},
      {"core.map_probe_max", static_cast<double>(t.map_probe_max), "count"},
      {"core.bytes_per_session", Median(b.bytes_per_session), "B"},
      {"core.map_hit_ratio",
       Ratio(static_cast<double>(t.map_hits), static_cast<double>(t.map_hits + t.map_misses)),
       "ratio"},
      {"op.push_ns", Ratio(static_cast<double>(push.self), static_cast<double>(push.count)), "ns"},
      {"op.run_ns", Ratio(static_cast<double>(run_all.self), static_cast<double>(run_all.count)),
       "ns"},
  };
  for (const LadderMetric& m : lad.metrics) {
    metrics.push_back({m.metric, m.value, "ns"});
  }
  const double untraced = OpsPerS(a);
  const double traced = OpsPerS(b);
  const std::vector<Metric> tail = {
      {"proto.topology_s", FastSeconds(rec, "topology"), "s"},
      {"rpc.stacks_s", FastSeconds(rec, "stacks"), "s"},
      {"cluster.setup_s", FastSeconds(rec, "cluster"), "s"},
      {"rpc.fragments_per_op", Ratio(static_cast<double>(t.fragments), ops), "count"},
      {"app.oracle_ns_per_op",
       Ratio(static_cast<double>(rec.Summarize("oracle").total), ops), "ns"},
      {"trace.overhead_pct", (Ratio(untraced, traced) - 1) * 100, "%"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  std::printf("  untraced: %d episodes, %s ops/s; traced: %d episodes, %s ops/s, %zu spans; "
              "simulated digests equal\n",
              a.episodes, Number(untraced).c_str(), b.episodes, Number(traced).c_str(),
              rec.spans().size());
  PrintLadder(lad);
  PrintMetrics(metrics);
  std::printf("  %-24s %14s count (text only, like failed_ppm: 0 on these clean workloads)\n",
              "rpc.retransmits_per_op",
              Number(Ratio(static_cast<double>(t.retransmits), ops)).c_str());
  if (!o.spans_out.empty() && !rec.WriteJsonl(o.spans_out)) {
    std::fprintf(stderr, "hostbench: could not write spans to %s\n", o.spans_out.c_str());
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

int RecordReference() {
  std::printf("# Simulated digests of one default-scale episode per (workload, seed).\n"
              "# Host-independent: a change that moves any field changed the simulation.\n"
              "# Regenerate with: python3 hostbench/run.py --record-reference\n");
  for (const Workload& w : Workloads()) {
    for (uint64_t seed = 0; seed < kReferenceSeeds; ++seed) {
      const EpisodeStats e = w.run(seed, Scale{}, nullptr);
      if (!e.error.empty()) {
        std::fprintf(stderr, "hostbench: %s\n", e.error.c_str());
        return 1;
      }
      std::printf("%s %llu %s\n", w.name, static_cast<unsigned long long>(seed),
                  e.digest.ToString().c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!ParseArgs(argc, argv, &o, &error)) {
    return Usage(error.c_str());
  }
  if (o.record) {
    return RecordReference();
  }
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (o.reference.empty()) {
    return Usage("--reference FILE is required");
  }
  ReferenceTable ref;
  if (!LoadReference(o.reference, &ref, &error)) {
    std::fprintf(stderr, "hostbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("hostbench: workload=%s seed=%llu seconds=%s trace=%d\n", w->name,
              static_cast<unsigned long long>(o.seed), Number(o.seconds).c_str(), o.trace);
  return o.trace == 0 ? RunEndToEnd(o, *w, ref) : RunPerLayer(o, *w, ref);
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
