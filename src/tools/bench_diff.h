// Bench regression gate: compares two BENCH_RESULTS.json documents metric by
// metric and reports relative-error violations.
//
// The comparator is direction-aware: throughput-like metrics regress when
// they DROP, latency-like metrics regress when they RISE, and utilization or
// count-like metrics are compared two-sided. bench_suite reports simulated
// quantities only, so a baseline written on one machine gates runs on any
// other; the few fields that are bookkeeping rather than results (see
// SkippedKey) are never compared.
//
// Header-only so the unit tests exercise exactly the code the CLI runs.

#ifndef XK_SRC_TOOLS_BENCH_DIFF_H_
#define XK_SRC_TOOLS_BENCH_DIFF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

#include "src/tools/json_reader.h"

namespace xk::benchdiff {

// --- flattening -----------------------------------------------------------------

// Fields that are schema or job-set bookkeeping, or event and completion-time
// sums that move with any change to the event schedule, rather than results.
inline bool SkippedKey(std::string_view key) {
  return key == "schema_version" || key == "jobs" || key == "events_fired" ||
         key == "events_fired_total" || key == "sum_done_at_ns";
}

// Flattens every numeric leaf into path -> number. Entries of the "results"
// array are keyed "<group>.<name>" rather than by index, so job reordering
// never reads as a regression; "segments" entries are keyed "seg<id>".
inline void FlattenInto(const JsonValue& v, const std::string& path,
                        std::map<std::string, double>& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNumber:
      out[path] = v.num;
      return;
    case JsonValue::Kind::kObject:
      for (const auto& [k, child] : v.obj) {
        if (SkippedKey(k)) {
          continue;
        }
        FlattenInto(child, path.empty() ? k : path + "." + k, out);
      }
      return;
    case JsonValue::Kind::kArray:
      for (size_t i = 0; i < v.arr.size(); ++i) {
        const JsonValue& e = v.arr[i];
        std::string key = "[" + std::to_string(i) + "]";
        if (e.kind == JsonValue::Kind::kObject) {
          const JsonValue* group = e.Find("group");
          const JsonValue* name = e.Find("name");
          const JsonValue* seg = e.Find("segment");
          if (group != nullptr && name != nullptr &&
              group->kind == JsonValue::Kind::kString &&
              name->kind == JsonValue::Kind::kString) {
            key = group->str + "." + name->str;
          } else if (seg != nullptr && seg->kind == JsonValue::Kind::kNumber) {
            key = "seg" + std::to_string(static_cast<int64_t>(seg->num));
          }
        }
        FlattenInto(e, path.empty() ? key : path + "." + key, out);
      }
      return;
    default:
      return;  // strings/bools/nulls are not compared
  }
}

// --- comparison -----------------------------------------------------------------

enum class Direction {
  kLowerBetter,   // latency-like: regression when current rises
  kHigherBetter,  // throughput-like: regression when current drops
  kTwoSided,      // counts, utilization: any drift past the threshold
};

// Classifies by the final path component's name.
inline Direction DirectionFor(std::string_view path) {
  const size_t dot = path.rfind('.');
  const std::string_view leaf = dot == std::string_view::npos ? path : path.substr(dot + 1);
  auto contains = [&](std::string_view needle) {
    return leaf.find(needle) != std::string_view::npos;
  };
  if (contains("throughput") || contains("kbytes_per_sec") || contains("speedup") ||
      contains("completed") || contains("success") || contains("goodput")) {
    return Direction::kHigherBetter;
  }
  // "offered"/"issued" are workload inputs, "calls" are per-replica routing
  // counts, and "overhead" measures instrumentation cost: drift in either
  // direction is a real change, not an improvement. Overload-control verdicts
  // (sheds, rejects, budget giveups, hedges, breaker trips, admitted volume)
  // are policy decisions, not performance: fewer sheds can mean the policy
  // broke just as easily as the load eased, so they compare two-sided too.
  // ("admitted_success_ppm" is classified above: its "success" leaf wins.)
  if (contains("util") || contains("frames") || contains("bytes") || contains("count") ||
      contains("depth") || contains("busy") || contains("offered") || contains("issued") ||
      contains("calls") || contains("overhead") || contains("shed") || contains("reject") ||
      contains("budget") || contains("hedge") || contains("breaker") || contains("admitted") ||
      contains("giveup")) {
    return Direction::kTwoSided;
  }
  return Direction::kLowerBetter;  // *_ms, *_ns, failed, drops, ...
}

struct Options {
  double default_threshold = 0.02;  // 2% relative
  // (regex, threshold) pairs matched against the full flattened path; the
  // first match wins. A threshold > 1e9 effectively exempts the metric.
  std::vector<std::pair<std::string, double>> thresholds;
  bool allow_missing = false;  // tolerate metrics present in base, absent now
};

struct Finding {
  std::string path;
  double base = 0;
  double current = 0;
  double rel_err = 0;
  double threshold = 0;
  Direction direction = Direction::kLowerBetter;
  bool missing = false;  // in baseline but not in current
};

struct Report {
  std::vector<Finding> regressions;
  size_t compared = 0;
  std::string error;  // non-empty: parse/usage failure, nothing compared

  bool ok() const { return error.empty() && regressions.empty(); }
};

inline double ThresholdFor(const std::string& path, const Options& opt) {
  for (const auto& [pattern, th] : opt.thresholds) {
    if (std::regex_search(path, std::regex(pattern))) {
      return th;
    }
  }
  return opt.default_threshold;
}

inline Report Compare(std::string_view base_json, std::string_view current_json,
                      const Options& opt = Options{}) {
  Report report;
  JsonValue base_doc, cur_doc;
  {
    JsonParser p(base_json);
    if (!p.Parse(base_doc)) {
      report.error = "baseline: " + p.error();
      return report;
    }
  }
  {
    JsonParser p(current_json);
    if (!p.Parse(cur_doc)) {
      report.error = "current: " + p.error();
      return report;
    }
  }
  std::map<std::string, double> base, cur;
  FlattenInto(base_doc, "", base);
  FlattenInto(cur_doc, "", cur);
  if (base.empty()) {
    report.error = "baseline: no numeric metrics found";
    return report;
  }
  for (const auto& [path, bval] : base) {
    const double threshold = ThresholdFor(path, opt);
    auto it = cur.find(path);
    if (it == cur.end()) {
      if (!opt.allow_missing) {
        Finding f;
        f.path = path;
        f.base = bval;
        f.missing = true;
        f.threshold = threshold;
        report.regressions.push_back(std::move(f));
      }
      continue;
    }
    ++report.compared;
    const double cval = it->second;
    const double denom = std::max({std::fabs(bval), std::fabs(cval), 1e-12});
    const double rel = std::fabs(cval - bval) / denom;
    if (rel <= threshold) {
      continue;
    }
    const Direction dir = DirectionFor(path);
    const bool bad = dir == Direction::kTwoSided ||
                     (dir == Direction::kLowerBetter && cval > bval) ||
                     (dir == Direction::kHigherBetter && cval < bval);
    if (!bad) {
      continue;  // an improvement past the threshold is not a regression
    }
    Finding f;
    f.path = path;
    f.base = bval;
    f.current = cval;
    f.rel_err = rel;
    f.threshold = threshold;
    f.direction = dir;
    report.regressions.push_back(std::move(f));
  }
  return report;
}

}  // namespace xk::benchdiff

#endif  // XK_SRC_TOOLS_BENCH_DIFF_H_
