// xkflow: cross-host causal call-flow analysis for trace JSONL files.
//
// Where xktrace aggregates spans per layer, xkflow stitches every record that
// belongs to ONE oracle call -- client issue, retransmission attempts, each
// frame hop (queue wait + wire + propagation + per-router forward), the VPOOL
// replica choice, server execution, and the reply path -- into a causal graph,
// and attributes the call's full RTT across categories whose sums reconstruct
// the benchmark's measured latency exactly.
//
//   xkflow TRACE.jsonl                     per-call table + aggregate summary
//   xkflow TRACE.jsonl --call=ID           one call's waterfall, hop by hop
//   xkflow TRACE.jsonl --slowest=N         the N worst calls, with breakdowns
//   xkflow TRACE.jsonl --rejected          only overload-terminated calls
//                                          (shed / rejected / budget-exhausted)
//   xkflow TRACE.jsonl --critical-path     aggregate attribution [--json]
//   xkflow TRACE.jsonl --folded            flame-graph folded stacks to stdout
//   xkflow TRACE.jsonl --flow              flow JSONL to stdout
//
// The modes exclude each other, and --json applies only to --critical-path:
// a conflicting or ignored flag is a usage error (exit 2), not a silent pick.
//
// The input is a --trace= file from the bench suite; --flow= writes the same
// flow/folded artifacts directly from the bench run.

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

using xk::causal::Attempt;
using xk::causal::CallFlow;
using xk::causal::Category;
using xk::causal::CategoryName;
using xk::causal::FlowAnalysis;
using xk::causal::Hop;
using xk::causal::kNumCategories;
using xk::causal::Slice;
using xk::causal::Stitch;
using xk::causal::ToFlowJsonl;
using xk::causal::ToFolded;

int Usage() {
  std::fprintf(stderr,
               "usage: xkflow TRACE.jsonl [--call=ID | --slowest=N | --rejected | --folded\n"
               "                           | --flow | --critical-path [--json]]\n");
  return 2;
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

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  uint64_t call_id = 0;
  bool have_call = false;
  size_t slowest = 0;
  bool critical = false;
  bool folded = false;
  bool flow = false;
  bool json = false;
  bool rejected = false;
  std::string error;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--call=", 7) == 0) {
      if (!xk::ParseFlagUint64("--call", a + 7, &call_id, &error)) {
        std::fprintf(stderr, "xkflow: %s\n", error.c_str());
        return Usage();
      }
      have_call = true;
    } else if (std::strncmp(a, "--slowest=", 10) == 0) {
      int n = 0;
      if (!xk::ParseFlagInt("--slowest", a + 10, 1, &n, &error)) {
        std::fprintf(stderr, "xkflow: %s\n", error.c_str());
        return Usage();
      }
      slowest = static_cast<size_t>(n);
    } else if (std::strcmp(a, "--critical-path") == 0) {
      critical = true;
    } else if (std::strcmp(a, "--folded") == 0) {
      folded = true;
    } else if (std::strcmp(a, "--flow") == 0) {
      flow = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--rejected") == 0) {
      rejected = true;
    } else if (a[0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = a;
    } else {
      return Usage();
    }
  }
  std::string modes;
  for (const auto& [on, name] : {std::pair<bool, const char*>{have_call, "--call"},
                                 {slowest > 0, "--slowest"},
                                 {rejected, "--rejected"},
                                 {critical, "--critical-path"},
                                 {folded, "--folded"},
                                 {flow, "--flow"}}) {
    if (on) {
      modes += modes.empty() ? name : std::string(" ") + name;
    }
  }
  if (modes.find(' ') != std::string::npos) {
    std::fprintf(stderr, "xkflow: %s are exclusive modes; pick one\n", modes.c_str());
    return Usage();
  }
  if (json && !critical) {
    std::fprintf(stderr, "xkflow: --json applies only to --critical-path\n");
    return Usage();
  }
  if (path.empty()) {
    return Usage();
  }
  const xk::tracetool::TraceFile tf = xk::tracetool::Load(path);
  if (tf.spans.empty() && tf.wires.empty() && tf.events.empty()) {
    std::fprintf(stderr, "xkflow: %s is empty or unreadable\n", path.c_str());
    return 1;
  }
  const FlowAnalysis fa = Stitch(tf);
  if (folded) {
    std::fputs(ToFolded(fa).c_str(), stdout);
    return 0;
  }
  if (flow) {
    std::fputs(ToFlowJsonl(fa).c_str(), stdout);
    return 0;
  }
  if (have_call) {
    for (const CallFlow& c : fa.calls) {
      if (c.id == call_id) {
        PrintWaterfall(c);
        return 0;
      }
    }
    std::fprintf(stderr, "xkflow: no call %" PRIu64 " in %s\n", call_id, path.c_str());
    return 1;
  }
  if (slowest > 0) {
    std::vector<const CallFlow*> settled;
    for (const CallFlow& c : fa.calls) {
      if (c.completed) {
        settled.push_back(&c);
      }
    }
    std::stable_sort(settled.begin(), settled.end(),
                     [](const CallFlow* a, const CallFlow* b) { return a->rtt() > b->rtt(); });
    if (settled.size() > slowest) {
      settled.resize(slowest);
    }
    for (const CallFlow* c : settled) {
      PrintWaterfall(*c);
      std::printf("\n");
    }
    return 0;
  }
  if (rejected) {
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
  if (critical) {
    if (json) {
      PrintCriticalPathJson(fa);
    } else {
      PrintSummary(fa);
    }
    return 0;
  }
  if (fa.calls.empty()) {
    std::printf("no call-bound events in %s (trace has %zu spans, %zu wires, %zu events)\n",
                path.c_str(), tf.spans.size(), tf.wires.size(), tf.events.size());
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
