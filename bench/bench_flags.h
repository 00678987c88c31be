// Command-line parsing for bench_suite, split out of main() so the error
// paths are unit-testable (tests/bench_flags_test.cc). Every failure names
// the offending flag and token instead of silently clamping (std::atoi
// would turn --session-scale=abc into 0) or printing only a generic usage
// line.

#ifndef XK_BENCH_BENCH_FLAGS_H_
#define XK_BENCH_BENCH_FLAGS_H_

#include <cstring>
#include <string>

#include "src/tools/flag_parse.h"

namespace xk {

struct Options {
  std::string out_path = "BENCH_RESULTS.json";
  std::string trace_dir;
  std::string pcap_dir;
  std::string filter;      // ECMAScript regex matched against "group.name"
  std::string faults;      // FaultPlan spec (--faults=): adds a chaos.custom job
  std::string arrivals;    // ArrivalSpec (--arrivals=): adds a datacenter.custom job
  int session_scale = 0;   // >0 adds a session_scale.nN job at this size
  bool list = false;
};

// Parses argv into `opt` (fields not mentioned keep their current values).
// Returns true on success; on failure fills `error` with a message naming
// the offending flag or token.
inline bool ParseBenchArgs(int argc, char** argv, Options* opt, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      opt->out_path = arg + 6;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      opt->trace_dir = arg + 8;
    } else if (std::strncmp(arg, "--pcap=", 7) == 0) {
      opt->pcap_dir = arg + 7;
    } else if (std::strncmp(arg, "--filter=", 9) == 0) {
      opt->filter = arg + 9;
    } else if (std::strncmp(arg, "--faults=", 9) == 0) {
      opt->faults = arg + 9;
    } else if (std::strncmp(arg, "--arrivals=", 11) == 0) {
      opt->arrivals = arg + 11;
    } else if (std::strncmp(arg, "--session-scale=", 16) == 0) {
      if (!ParseFlagInt("--session-scale", arg + 16, 1, &opt->session_scale, error)) {
        return false;
      }
    } else if (std::strcmp(arg, "--list") == 0) {
      opt->list = true;
    } else {
      *error = "unknown flag '" + std::string(arg) + "'";
      return false;
    }
  }
  return true;
}

}  // namespace xk

#endif  // XK_BENCH_BENCH_FLAGS_H_
