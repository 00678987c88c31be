// xktrace: the one trace-analysis CLI, for the JSONL files bench_suite
// --trace= writes. Each row of the subcommand table (kCommands) names the
// arguments and flags its subcommand takes; anything else is a usage error.
//
//   layers TRACE [--calls=N] [--json]  per-(host, protocol, op) breakdown
//   layer-costs TRACE...               per-call latency deltas of a depth sweep
//   calls TRACE                        per-call table + aggregate summary
//   call TRACE ID                      one call's waterfall, hop by hop
//   slowest TRACE N                    the N worst calls, with breakdowns
//   rejected TRACE                     only overload-terminated calls
//   critical-path TRACE [--json]       aggregate attribution
//   folded TRACE                       flame-graph folded stacks
//   flow TRACE                         flow JSONL
//
// `layers` and `layer-costs` are the Table III methodology applied to traces:
// the per-call latency estimated from spans and wire records at successive
// protocol depths (shallowest first) gives the incremental layer costs. The
// call views stitch every record of one oracle call -- issue, retransmits,
// frame hops, replica choice, execution, reply -- into a causal graph
// (src/trace/causal.h) whose per-category sums reconstruct its RTT exactly.
//
// Exit status: 0 = ok, 1 = unreadable trace, malformed line, a trace with no
// spans, wires or logs for layers or with no spans for layer-costs, 2 = usage error.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/tools/flag_parse.h"
#include "src/tools/trace_reader.h"
#include "src/trace/causal.h"

namespace {

using namespace xk::causal;     // the call views
using namespace xk::tracetool;  // the layer views

void PrintBreakdownText(const std::string& path, const TraceFile& tf, const Breakdown& b) {
  std::printf("%s: %zu spans, %zu wire records, %zu logs", path.c_str(), tf.spans.size(),
              tf.wires.size(), tf.logs.size());
  if (tf.dropped > 0) {
    std::printf(" (%" PRIu64 " dropped at capacity)", tf.dropped);
  }
  std::printf("\n\n");
  std::printf("%-10s %-10s %-6s %10s %14s %14s\n", "host", "proto", "op", "count", "excl_us",
              "us/call");
  const double calls = static_cast<double>(b.calls);
  for (const auto& l : b.layers) {
    std::printf("%-10s %-10s %-6s %10" PRIu64 " %14.3f %14.3f\n", l.host.c_str(),
                l.proto.c_str(), l.op.c_str(), l.count,
                static_cast<double>(l.excl_total) / 1000.0,
                static_cast<double>(l.excl_total) / 1000.0 / calls);
  }
  if (!b.segments.empty()) {
    std::printf("\n%-8s %10s %12s %12s %8s %8s %10s %10s %12s %12s\n", "segment", "frames",
                "bytes", "busy_us", "util_%", "queued", "peak_qd", "mean_qd", "wait_us",
                "max_wait_us");
    const double elapsed = static_cast<double>(b.elapsed());
    for (const auto& s : b.segments) {
      const double util =
          elapsed > 0 ? 100.0 * static_cast<double>(s.busy) / elapsed : 0.0;
      const double mean_qd =
          s.frames > 0 ? static_cast<double>(s.depth_sum) / static_cast<double>(s.frames) : 0.0;
      std::printf("%-8" PRId64 " %10" PRIu64 " %12" PRIu64 " %12.3f %8.2f %8" PRIu64
                  " %10" PRIu64 " %10.3f %12.3f %12.3f\n",
                  s.seg, s.frames, s.bytes, static_cast<double>(s.busy) / 1000.0, util,
                  s.queued, s.peak_depth, mean_qd, static_cast<double>(s.wait_total) / 1000.0,
                  static_cast<double>(s.wait_max) / 1000.0);
    }
  }
  if (!b.routers.empty()) {
    std::printf("\n%-10s %10s %10s %14s\n", "router", "forwards", "ttl_drops", "no_route_drops");
    for (const auto& rt : b.routers) {
      std::printf("%-10s %10" PRIu64 " %10" PRIu64 " %14" PRIu64 "\n", rt.host.c_str(),
                  rt.forwards, rt.ttl_drops, rt.no_route_drops);
    }
  }
  std::printf("\n");
  std::printf("calls:        %" PRIu64 " (inferred as min push count per layer)\n", b.calls);
  std::printf("cpu total:    %.3f us (%.3f us per-call)\n",
              static_cast<double>(b.cpu_total) / 1000.0,
              static_cast<double>(b.cpu_total) / 1000.0 / calls);
  std::printf("wire total:   %.3f us (%.3f us per-call)\n",
              static_cast<double>(b.wire_total) / 1000.0,
              static_cast<double>(b.wire_total) / 1000.0 / calls);
  std::printf("propagation:  %.3f us (%.3f us per-call)\n",
              static_cast<double>(b.prop_total) / 1000.0,
              static_cast<double>(b.prop_total) / 1000.0 / calls);
  const int64_t overlap = b.cpu_total + b.wire_total + b.prop_total - b.elapsed();
  std::printf("elapsed:      %.3f us (cpu/wire overlap %.3f us)\n",
              static_cast<double>(b.elapsed()) / 1000.0, static_cast<double>(overlap) / 1000.0);
  std::printf("estimated per-call latency: %.3f us (%.4f ms)\n", b.PerCallUsec(),
              b.PerCallUsec() / 1000.0);
}

void PrintBreakdownJson(const TraceFile& tf, const Breakdown& b) {
  std::printf("{\"spans\":%zu,\"wires\":%zu,\"logs\":%zu,\"dropped\":%" PRIu64
              ",\"calls\":%" PRIu64 ",\"cpu_ns\":%" PRId64 ",\"wire_ns\":%" PRId64
              ",\"prop_ns\":%" PRId64 ",\"elapsed_ns\":%" PRId64
              ",\"per_call_us\":%.3f,\"layers\":[",
              tf.spans.size(), tf.wires.size(), tf.logs.size(), tf.dropped, b.calls,
              b.cpu_total, b.wire_total, b.prop_total, b.elapsed(), b.PerCallUsec());
  bool first = true;
  for (const auto& l : b.layers) {
    std::printf("%s{\"host\":\"%s\",\"proto\":\"%s\",\"op\":\"%s\",\"count\":%" PRIu64
                ",\"excl_ns\":%" PRId64 "}",
                first ? "" : ",", l.host.c_str(), l.proto.c_str(), l.op.c_str(), l.count,
                l.excl_total);
    first = false;
  }
  std::printf("],\"segments\":[");
  first = true;
  for (const auto& s : b.segments) {
    std::printf("%s{\"segment\":%" PRId64 ",\"frames\":%" PRIu64 ",\"bytes\":%" PRIu64
                ",\"busy_ns\":%" PRId64 ",\"queued\":%" PRIu64 ",\"peak_queue_depth\":%" PRIu64
                ",\"queue_depth_sum\":%" PRIu64 ",\"wait_total_ns\":%" PRId64
                ",\"wait_max_ns\":%" PRId64 "}",
                first ? "" : ",", s.seg, s.frames, s.bytes, s.busy, s.queued, s.peak_depth,
                s.depth_sum, s.wait_total, s.wait_max);
    first = false;
  }
  std::printf("],\"routers\":[");
  first = true;
  for (const auto& rt : b.routers) {
    std::printf("%s{\"host\":\"%s\",\"forwards\":%" PRIu64 ",\"ttl_drops\":%" PRIu64
                ",\"no_route_drops\":%" PRIu64 "}",
                first ? "" : ",", rt.host.c_str(), rt.forwards, rt.ttl_drops, rt.no_route_drops);
    first = false;
  }
  std::printf("]}\n");
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// A call the overload-control layer turned away (or that died giving up):
// either a shed/reject/budget event bound to it, or an overload status.
bool OverloadTerminated(const CallFlow& c) {
  return !c.terminal.empty() || c.status == "DEADLINE_EXCEEDED" || c.status == "BUSY" ||
         c.status == "RESOURCE_EXHAUSTED";
}

void PrintCallRow(const CallFlow& c) {
  std::printf("%6" PRIu64 " %-10s %-10s %-12s %4d %9.3f %4zu %3d %-12s\n", c.id,
              c.client.c_str(), c.server.empty() ? "-" : c.server.c_str(),
              c.status.empty() ? "-" : c.status.c_str(), c.replica, Ms(c.rtt()),
              c.attempts.size(), c.reroutes,
              c.completed && c.rtt() > 0 ? CategoryName(c.critical()) : "-");
}

void PrintCallTableHeader() {
  std::printf("%6s %-10s %-10s %-12s %4s %9s %4s %3s %-12s\n", "call", "client", "server",
              "status", "repl", "rtt_ms", "att", "rr", "critical");
}

void PrintBreakdownLine(const std::array<int64_t, kNumCategories>& ns, int64_t total) {
  for (int k = 0; k < kNumCategories; ++k) {
    const int64_t v = ns[static_cast<size_t>(k)];
    if (v == 0) {
      continue;
    }
    const double pct = total > 0 ? 100.0 * static_cast<double>(v) / static_cast<double>(total) : 0;
    std::printf("    %-14s %12.3f us  %5.1f%%\n", CategoryName(static_cast<Category>(k)), Us(v),
                pct);
  }
}

void PrintWaterfall(const CallFlow& c) {
  std::printf("call %" PRIu64 ": %s -> %s  status=%s replica=%d rtt=%.3f ms\n", c.id,
              c.client.c_str(), c.server.empty() ? "?" : c.server.c_str(),
              c.status.empty() ? "?" : c.status.c_str(), c.replica, Ms(c.rtt()));
  std::printf("  issued %.6f ms, done %.6f ms, %zu message id(s), %zu hop(s), %d reroute(s)\n",
              Ms(c.issue_t), Ms(c.done_t), c.msgs.size(), c.hops.size(), c.reroutes);
  if (!c.terminal.empty()) {
    std::printf("  overload verdict: %s at +%.3f us%s\n", c.terminal.c_str(),
                Us(c.terminal_t - c.issue_t), c.hedged ? " (hedged)" : "");
  } else if (c.hedged) {
    std::printf("  hedged: yes\n");
  }
  if (c.attempts.size() > 1) {
    std::printf("  attempts:\n");
    for (const Attempt& a : c.attempts) {
      std::printf("    +%10.3f us  retry=%d  cause=%s\n", Us(a.t - c.issue_t), a.retry,
                  a.cause.c_str());
    }
  }
  if (!c.hops.empty()) {
    std::printf("  hops:\n");
    for (const Hop& h : c.hops) {
      std::printf("    +%10.3f us  seg%-2" PRId64 " %5" PRIu64 "B  queue %.3f us, wire %.3f us,"
                  " prop %.3f us  (msg %" PRIu64 ")\n",
                  Us(h.t0 - c.issue_t), h.seg, h.len, Us(h.qwait), Us(h.t1 - h.t0),
                  Us(h.arrive - h.t1), h.msg);
    }
  }
  if (!c.slices.empty()) {
    std::printf("  waterfall (slices partition the rtt exactly):\n");
    for (const Slice& sl : c.slices) {
      std::printf("    +%10.3f us  %10.3f us  %-12s %s\n", Us(sl.t0 - c.issue_t),
                  Us(sl.t1 - sl.t0), CategoryName(sl.cat), sl.label.c_str());
    }
    std::printf("  attribution:\n");
    PrintBreakdownLine(c.ns, c.rtt());
  }
}

void PrintSummary(const FlowAnalysis& fa) {
  std::printf("calls: %zu (%" PRIu64 " ok, %" PRIu64 " failed, %zu never settled)\n",
              fa.calls.size(), fa.completed, fa.failed,
              fa.calls.size() - static_cast<size_t>(fa.completed + fa.failed));
  std::printf("mean rtt: %.3f ms\n", fa.MeanRttNs() / 1e6);
  if (fa.retransmits > 0) {
    std::printf("retransmits: %" PRIu64 " (", fa.retransmits);
    bool first = true;
    for (const auto& [cause, n] : fa.retry_causes) {
      std::printf("%s%s=%" PRIu64, first ? "" : ", ", cause.c_str(), n);
      first = false;
    }
    std::printf(")\n");
  }
  if (!fa.replica_picks.empty()) {
    std::printf("replica picks:");
    for (const auto& [idx, n] : fa.replica_picks) {
      std::printf(" s%d=%" PRIu64, idx, n);
    }
    std::printf("\n");
  }
  if (fa.reroutes + fa.replica_downs + fa.replica_readmits + fa.crashes + fa.restarts +
          fa.evictions >
      0) {
    std::printf("cluster events: %" PRIu64 " reroutes, %" PRIu64 " replica_down, %" PRIu64
                " replica_readmit, %" PRIu64 " crashes, %" PRIu64 " restarts, %" PRIu64
                " evictions\n",
                fa.reroutes, fa.replica_downs, fa.replica_readmits, fa.crashes, fa.restarts,
                fa.evictions);
  }
  if (fa.sheds + fa.rejects + fa.budget_exhausted + fa.hedges + fa.hedge_cancels > 0) {
    std::printf("overload: %" PRIu64 " sheds, %" PRIu64 " rejects, %" PRIu64
                " budget_exhausted, %" PRIu64 " hedges (%" PRIu64 " cancelled)\n",
                fa.sheds, fa.rejects, fa.budget_exhausted, fa.hedges, fa.hedge_cancels);
  }
  if (fa.forwards + fa.ttl_drops + fa.no_route_drops > 0) {
    std::printf("routing: %" PRIu64 " forwards, %" PRIu64 " ttl_drops, %" PRIu64
                " no_route_drops\n",
                fa.forwards, fa.ttl_drops, fa.no_route_drops);
  }
  int64_t total = 0;
  for (int k = 0; k < kNumCategories; ++k) {
    total += fa.total_ns[static_cast<size_t>(k)];
  }
  if (total > 0) {
    std::printf("aggregate attribution (sums to total settled rtt):\n");
    PrintBreakdownLine(fa.total_ns, total);
    std::printf("dominant category by call:\n");
    for (int k = 0; k < kNumCategories; ++k) {
      if (fa.dominant_calls[static_cast<size_t>(k)] > 0) {
        std::printf("    %-14s %6" PRIu64 " call(s)\n", CategoryName(static_cast<Category>(k)),
                    fa.dominant_calls[static_cast<size_t>(k)]);
      }
    }
  }
}

void PrintCriticalPathJson(const FlowAnalysis& fa) {
  int64_t total = 0;
  for (int k = 0; k < kNumCategories; ++k) {
    total += fa.total_ns[static_cast<size_t>(k)];
  }
  std::printf("{\"calls\":%zu,\"completed\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"mean_rtt_ns\":%.3f,\"mean_rtt_ms\":%.6f,\"total_attributed_ns\":%" PRId64
              ",\"retransmits\":%" PRIu64 ",\"sheds\":%" PRIu64 ",\"rejects\":%" PRIu64
              ",\"budget_exhausted\":%" PRIu64 ",\"hedges\":%" PRIu64
              ",\"hedge_cancels\":%" PRIu64,
              fa.calls.size(), fa.completed, fa.failed, fa.MeanRttNs(), fa.MeanRttNs() / 1e6,
              total, fa.retransmits, fa.sheds, fa.rejects, fa.budget_exhausted, fa.hedges,
              fa.hedge_cancels);
  std::printf(",\"categories\":{");
  for (int k = 0; k < kNumCategories; ++k) {
    std::printf("%s\"%s\":%" PRId64, k == 0 ? "" : ",", CategoryName(static_cast<Category>(k)),
                fa.total_ns[static_cast<size_t>(k)]);
  }
  std::printf("},\"dominant_calls\":{");
  for (int k = 0; k < kNumCategories; ++k) {
    std::printf("%s\"%s\":%" PRIu64, k == 0 ? "" : ",", CategoryName(static_cast<Category>(k)),
                fa.dominant_calls[static_cast<size_t>(k)]);
  }
  std::printf("},\"retry_causes\":{");
  bool first = true;
  for (const auto& [cause, n] : fa.retry_causes) {
    std::printf("%s\"%s\":%" PRIu64, first ? "" : ",", cause.c_str(), n);
    first = false;
  }
  std::printf("}}\n");
}

// A subcommand's parsed command line, its TRACE already loaded.
struct Invocation {
  std::vector<std::string> args;  // positional, TRACE first
  uint64_t calls = 0;             // --calls=N (0 = infer)
  bool json = false;              // --json
  TraceFile tf;                   // args[0]; a trace with no records is valid
};

// Loads TRACE, or says why it cannot.
bool LoadTrace(const std::string& path, TraceFile* tf) {
  *tf = Load(path);
  if (!tf->error.empty()) {
    std::fprintf(stderr, "xktrace: %s\n", tf->error.c_str());
  }
  return tf->error.empty();
}

int RunLayers(const Invocation& inv) {
  if (inv.tf.spans.empty() && inv.tf.wires.empty() && inv.tf.logs.empty()) {
    std::fprintf(stderr, "xktrace: %s has no spans, wires or logs\n", inv.args[0].c_str());
    return 1;
  }
  const Breakdown b = Analyze(inv.tf, inv.calls);
  if (inv.json) {
    PrintBreakdownJson(inv.tf, b);
  } else {
    PrintBreakdownText(inv.args[0], inv.tf, b);
  }
  return 0;
}

int RunLayerCosts(const Invocation& inv) {
  std::printf("%-40s %10s %14s %14s\n", "trace", "calls", "per-call_us", "delta_us");
  double prev = 0.0;
  bool have_prev = false;
  for (size_t i = 0; i < inv.args.size(); ++i) {
    const std::string& path = inv.args[i];
    TraceFile loaded;
    if (i > 0 && !LoadTrace(path, &loaded)) {
      return 1;
    }
    const TraceFile& tf = i == 0 ? inv.tf : loaded;
    if (tf.spans.empty()) {
      std::fprintf(stderr, "xktrace: %s has no spans\n", path.c_str());
      return 1;
    }
    const Breakdown b = Analyze(tf);
    const double us = b.PerCallUsec();
    if (have_prev) {
      std::printf("%-40s %10" PRIu64 " %14.3f %14.3f\n", path.c_str(), b.calls, us, us - prev);
    } else {
      std::printf("%-40s %10" PRIu64 " %14.3f %14s\n", path.c_str(), b.calls, us, "-");
    }
    prev = us;
    have_prev = true;
  }
  return 0;
}

int RunCalls(const Invocation& inv) {
  const FlowAnalysis fa = Stitch(inv.tf);
  if (fa.calls.empty()) {
    std::printf("no call-bound events in %s (trace has %zu spans, %zu wires, %zu events)\n",
                inv.args[0].c_str(), inv.tf.spans.size(), inv.tf.wires.size(),
                inv.tf.events.size());
    return 0;
  }
  PrintCallTableHeader();
  for (const CallFlow& c : fa.calls) {
    PrintCallRow(c);
  }
  std::printf("\n");
  PrintSummary(fa);
  return 0;
}

int RunCall(const Invocation& inv) {
  uint64_t call_id = 0;
  std::string error;
  if (!xk::ParseFlagUint64("ID", inv.args[1].c_str(), &call_id, &error)) {
    std::fprintf(stderr, "xktrace: call: %s\n", error.c_str());
    return 2;
  }
  const FlowAnalysis fa = Stitch(inv.tf);
  for (const CallFlow& c : fa.calls) {
    if (c.id == call_id) {
      PrintWaterfall(c);
      return 0;
    }
  }
  std::fprintf(stderr, "xktrace: no call %" PRIu64 " in %s\n", call_id, inv.args[0].c_str());
  return 1;
}

int RunSlowest(const Invocation& inv) {
  int n = 0;
  std::string error;
  if (!xk::ParseFlagInt("N", inv.args[1].c_str(), 1, &n, &error)) {
    std::fprintf(stderr, "xktrace: slowest: %s\n", error.c_str());
    return 2;
  }
  const FlowAnalysis fa = Stitch(inv.tf);
  std::vector<const CallFlow*> settled;
  for (const CallFlow& c : fa.calls) {
    if (c.completed) {
      settled.push_back(&c);
    }
  }
  std::stable_sort(settled.begin(), settled.end(),
                   [](const CallFlow* a, const CallFlow* b) { return a->rtt() > b->rtt(); });
  settled.resize(std::min(settled.size(), static_cast<size_t>(n)));
  for (const CallFlow* c : settled) {
    PrintWaterfall(*c);
    std::printf("\n");
  }
  return 0;
}

int RunRejected(const Invocation& inv) {
  const FlowAnalysis fa = Stitch(inv.tf);
  PrintCallTableHeader();
  size_t n = 0;
  for (const CallFlow& c : fa.calls) {
    if (OverloadTerminated(c)) {
      PrintCallRow(c);
      ++n;
    }
  }
  std::printf("\n%zu overload-terminated call(s) of %zu (%" PRIu64 " sheds, %" PRIu64
              " rejects, %" PRIu64 " budget_exhausted)\n",
              n, fa.calls.size(), fa.sheds, fa.rejects, fa.budget_exhausted);
  return 0;
}

int RunCriticalPath(const Invocation& inv) {
  const FlowAnalysis fa = Stitch(inv.tf);
  if (inv.json) {
    PrintCriticalPathJson(fa);
  } else {
    PrintSummary(fa);
  }
  return 0;
}

int RunFolded(const Invocation& inv) {
  std::fputs(ToFolded(Stitch(inv.tf)).c_str(), stdout);
  return 0;
}

int RunFlow(const Invocation& inv) {
  std::fputs(ToFlowJsonl(Stitch(inv.tf)).c_str(), stdout);
  return 0;
}

enum Flag : unsigned { kCallsFlag = 1, kJsonFlag = 2 };

struct Command {
  const char* name;
  const char* args;  // positional arguments, as usage prints them
  size_t nargs;      // how many; 0 = one or more
  unsigned flags;    // the Flags it takes
  int (*run)(const Invocation&);
};

const Command kCommands[] = {
    {"layers", "TRACE", 1, kCallsFlag | kJsonFlag, RunLayers},
    {"layer-costs", "TRACE...", 0, 0, RunLayerCosts},
    {"calls", "TRACE", 1, 0, RunCalls},
    {"call", "TRACE ID", 2, 0, RunCall},
    {"slowest", "TRACE N", 2, 0, RunSlowest},
    {"rejected", "TRACE", 1, 0, RunRejected},
    {"critical-path", "TRACE", 1, kJsonFlag, RunCriticalPath},
    {"folded", "TRACE", 1, 0, RunFolded},
    {"flow", "TRACE", 1, 0, RunFlow},
};

int Usage() {
  const char* lead = "usage:";
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "%-6s xktrace %s %s%s%s\n", lead, c.name, c.args,
                 (c.flags & kCallsFlag) != 0 ? " [--calls=N]" : "",
                 (c.flags & kJsonFlag) != 0 ? " [--json]" : "");
    lead = "";
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (std::strcmp(argv[1], c.name) == 0) {
      cmd = &c;
    }
  }
  if (cmd == nullptr) {
    std::fprintf(stderr, "xktrace: unknown subcommand '%s'\n", argv[1]);
    return Usage();
  }
  Invocation inv;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (a[0] != '-') {
      inv.args.emplace_back(a);
    } else if ((cmd->flags & kJsonFlag) != 0 && std::strcmp(a, "--json") == 0) {
      inv.json = true;
    } else if ((cmd->flags & kCallsFlag) != 0 && std::strncmp(a, "--calls=", 8) == 0) {
      int n = 0;
      std::string error;
      if (!xk::ParseFlagInt("--calls", a + 8, 1, &n, &error)) {
        std::fprintf(stderr, "xktrace: %s\n", error.c_str());
        return Usage();
      }
      inv.calls = static_cast<uint64_t>(n);
    } else {
      std::fprintf(stderr, "xktrace: %s does not take %s\n", cmd->name, a);
      return Usage();
    }
  }
  if (cmd->nargs == 0 ? inv.args.empty() : inv.args.size() != cmd->nargs) {
    std::fprintf(stderr, "xktrace: %s takes %s, got %zu argument(s)\n", cmd->name, cmd->args,
                 inv.args.size());
    return Usage();
  }
  return LoadTrace(inv.args[0], &inv.tf) ? cmd->run(inv) : 1;
}
