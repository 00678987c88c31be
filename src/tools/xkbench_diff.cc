// xkbench-diff: the bench regression gate.
//
//   xkbench_diff BASELINE.json CURRENT.json [options]
//
//   --default-threshold=PCT   relative tolerance for unmatched metrics (2)
//   --threshold=REGEX=PCT     override for paths matching REGEX (first match
//                             wins; may repeat)
//   --allow-missing           tolerate metrics present only in the baseline
//   --quiet                   no output, exit status only
//
// Exit status: 0 = within thresholds, 1 = regression (or missing metric),
// 2 = usage/parse error. Bookkeeping fields (schema_version, jobs,
// events_fired, ...) are never compared -- see SkippedKey in bench_diff.h.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/tools/bench_diff.h"
#include "src/tools/flag_parse.h"
#include "src/tools/json_reader.h"

namespace {

const char* DirName(xk::benchdiff::Direction d) {
  switch (d) {
    case xk::benchdiff::Direction::kLowerBetter:
      return "lower-better";
    case xk::benchdiff::Direction::kHigherBetter:
      return "higher-better";
    case xk::benchdiff::Direction::kTwoSided:
      return "two-sided";
  }
  return "?";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json CURRENT.json [--default-threshold=PCT]\n"
               "          [--threshold=REGEX=PCT]... [--allow-missing] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xk::benchdiff::Options opt;
  const char* base_path = nullptr;
  const char* cur_path = nullptr;
  bool quiet = false;
  std::string error;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    double pct = 0;
    if (std::strncmp(a, "--default-threshold=", 20) == 0) {
      if (!xk::ParseFlagPercent("--default-threshold", a + 20, &pct, &error)) {
        std::fprintf(stderr, "xkbench-diff: %s\n", error.c_str());
        return Usage(argv[0]);
      }
      opt.default_threshold = pct / 100.0;
    } else if (std::strncmp(a, "--threshold=", 12) == 0) {
      const char* spec = a + 12;
      const char* eq = std::strrchr(spec, '=');
      if (eq == nullptr || eq == spec) {
        return Usage(argv[0]);
      }
      if (!xk::ParseFlagPercent("--threshold", eq + 1, &pct, &error)) {
        std::fprintf(stderr, "xkbench-diff: %s\n", error.c_str());
        return Usage(argv[0]);
      }
      opt.thresholds.emplace_back(std::string(spec, eq), pct / 100.0);
    } else if (std::strcmp(a, "--allow-missing") == 0) {
      opt.allow_missing = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (a[0] == '-') {
      return Usage(argv[0]);
    } else if (base_path == nullptr) {
      base_path = a;
    } else if (cur_path == nullptr) {
      cur_path = a;
    } else {
      return Usage(argv[0]);
    }
  }
  if (base_path == nullptr || cur_path == nullptr) {
    return Usage(argv[0]);
  }

  std::string base_json, cur_json;
  if (!xk::ReadFile(base_path, &base_json)) {
    std::fprintf(stderr, "xkbench-diff: cannot read %s\n", base_path);
    return 2;
  }
  if (!xk::ReadFile(cur_path, &cur_json)) {
    std::fprintf(stderr, "xkbench-diff: cannot read %s\n", cur_path);
    return 2;
  }

  const xk::benchdiff::Report report = xk::benchdiff::Compare(base_json, cur_json, opt);
  if (!report.error.empty()) {
    std::fprintf(stderr, "xkbench-diff: %s\n", report.error.c_str());
    return 2;
  }
  if (!quiet) {
    for (const xk::benchdiff::Finding& f : report.regressions) {
      if (f.missing) {
        std::fprintf(stderr, "REGRESSION %s: present in baseline (%.10g), missing now\n",
                     f.path.c_str(), f.base);
      } else {
        std::fprintf(stderr,
                     "REGRESSION %s: baseline %.10g -> current %.10g "
                     "(%.2f%% > %.2f%%, %s)\n",
                     f.path.c_str(), f.base, f.current, f.rel_err * 100.0,
                     f.threshold * 100.0, DirName(f.direction));
      }
    }
    std::printf("xkbench-diff: %zu metrics compared, %zu regression(s)\n", report.compared,
                report.regressions.size());
  }
  return report.regressions.empty() ? 0 : 1;
}
