// xktrace: analyze trace JSONL files written by the --trace= bench flag.
//
// Default mode prints a per-layer breakdown -- one row per (host, protocol,
// op) with span counts and exclusive CPU cost -- plus an estimated per-call
// latency derived purely from the observed spans and wire records. This is
// the Table III methodology applied to a trace instead of a benchmark: run
// the same workload at successive protocol depths, and the per-call deltas
// are the incremental layer costs.
//
//   xktrace TRACE.jsonl [--calls=N] [--json]
//   xktrace --layer-costs TRACE0.jsonl TRACE1.jsonl ...
//
// --layer-costs treats the traces as a depth sweep (shallowest first) and
// prints each trace's per-call latency and the delta from the previous one.
// It prints text only and infers each trace's call count, so --json or
// --calls alongside it is a usage error (exit 2).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/tools/flag_parse.h"
#include "src/tools/trace_reader.h"

namespace {

using xk::tracetool::Analyze;
using xk::tracetool::Breakdown;
using xk::tracetool::Load;
using xk::tracetool::TraceFile;

int Usage() {
  std::fprintf(stderr,
               "usage: xktrace TRACE.jsonl [--calls=N] [--json]\n"
               "       xktrace --layer-costs TRACE0.jsonl TRACE1.jsonl ...\n");
  return 2;
}

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

int RunLayerCosts(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Usage();
  }
  std::printf("%-40s %10s %14s %14s\n", "trace", "calls", "per-call_us", "delta_us");
  double prev = 0.0;
  bool have_prev = false;
  for (const std::string& path : paths) {
    const TraceFile tf = Load(path);
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

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool json = false;
  bool layer_costs = false;
  uint64_t forced_calls = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--layer-costs") == 0) {
      layer_costs = true;
    } else if (std::strncmp(a, "--calls=", 8) == 0) {
      int n = 0;
      std::string error;
      if (!xk::ParseFlagInt("--calls", a + 8, 1, &n, &error)) {
        std::fprintf(stderr, "xktrace: %s\n", error.c_str());
        return Usage();
      }
      forced_calls = static_cast<uint64_t>(n);
    } else if (a[0] == '-') {
      return Usage();
    } else {
      paths.emplace_back(a);
    }
  }
  if (layer_costs) {
    if (json || forced_calls > 0) {
      std::fprintf(stderr, "xktrace: --layer-costs does not take %s\n",
                   json ? "--json" : "--calls");
      return Usage();
    }
    return RunLayerCosts(paths);
  }
  if (paths.size() != 1) {
    return Usage();
  }
  const TraceFile tf = Load(paths[0]);
  if (tf.spans.empty() && tf.wires.empty() && tf.logs.empty()) {
    std::fprintf(stderr, "xktrace: %s is empty or unreadable\n", paths[0].c_str());
    return 1;
  }
  const Breakdown b = Analyze(tf, forced_calls);
  if (json) {
    PrintBreakdownJson(tf, b);
  } else {
    PrintBreakdownText(paths[0], tf, b);
  }
  return 0;
}
