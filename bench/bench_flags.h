// Command-line parsing for bench_suite, split out of main() so the error
// paths are unit-testable (tests/bench_flags_test.cc). Every failure names
// the offending flag and token instead of silently clamping (std::atoi
// would turn --threads=abc into 1) or printing only a generic usage line.

#ifndef XK_BENCH_BENCH_FLAGS_H_
#define XK_BENCH_BENCH_FLAGS_H_

#include <cstdlib>
#include <cstring>
#include <string>

namespace xk {

struct Options {
  unsigned threads = 1;
  std::string out_path = "BENCH_RESULTS.json";
  std::string trace_dir;
  std::string pcap_dir;
  std::string stats_dir;   // per-job time-series JSONL (--stats=DIR)
  std::string flow_dir;    // per-job causal flow + folded stacks (--flow=DIR)
  std::string filter;      // ECMAScript regex matched against "group.name"
  std::string faults;      // FaultPlan spec (--faults=): adds a chaos.custom job
  std::string arrivals;    // ArrivalSpec (--arrivals=): adds a datacenter.custom job
  int session_scale = 0;   // >0 adds a session_scale.nN job at this size
  bool list = false;
  bool stable = false;     // omit wall-clock fields from the JSON
};

namespace bench_flags_internal {

// Parses `value` as a base-10 integer >= `min`; on failure writes a message
// naming the flag and the offending token.
inline bool ParseFlagInt(const char* flag, const char* value, long min, int* out,
                         std::string* error) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    *error = std::string(flag) + ": bad value '" + value + "' (expected an integer)";
    return false;
  }
  if (v < min) {
    *error = std::string(flag) + ": bad value '" + value + "' (must be >= " +
             std::to_string(min) + ")";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace bench_flags_internal

// Parses argv into `opt` (fields not mentioned keep their current values).
// Returns true on success; on failure fills `error` with a message naming
// the offending flag or token.
inline bool ParseBenchArgs(int argc, char** argv, Options* opt, std::string* error) {
  using bench_flags_internal::ParseFlagInt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    int n = 0;
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!ParseFlagInt("--threads", arg + 10, 1, &n, error)) {
        return false;
      }
      opt->threads = static_cast<unsigned>(n);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opt->out_path = arg + 6;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      opt->trace_dir = arg + 8;
    } else if (std::strncmp(arg, "--pcap=", 7) == 0) {
      opt->pcap_dir = arg + 7;
    } else if (std::strncmp(arg, "--stats=", 8) == 0) {
      opt->stats_dir = arg + 8;
    } else if (std::strncmp(arg, "--flow=", 7) == 0) {
      opt->flow_dir = arg + 7;
    } else if (std::strncmp(arg, "--filter=", 9) == 0) {
      opt->filter = arg + 9;
    } else if (std::strncmp(arg, "--faults=", 9) == 0) {
      opt->faults = arg + 9;
    } else if (std::strncmp(arg, "--arrivals=", 11) == 0) {
      opt->arrivals = arg + 11;
    } else if (std::strncmp(arg, "--session-scale=", 16) == 0) {
      if (!ParseFlagInt("--session-scale", arg + 16, 1, &n, error)) {
        return false;
      }
      opt->session_scale = n;
    } else if (std::strcmp(arg, "--list") == 0) {
      opt->list = true;
    } else if (std::strcmp(arg, "--stable") == 0) {
      opt->stable = true;
    } else {
      *error = "unknown flag '" + std::string(arg) + "'";
      return false;
    }
  }
  return true;
}

}  // namespace xk

#endif  // XK_BENCH_BENCH_FLAGS_H_
