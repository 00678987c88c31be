// The layer ladder: the host-side twin of the paper's Table III.
//
// Each rung is a null round trip through a stack one layer taller than the
// rung below it (ETH, VIP, FRAGMENT-VIP, CHANNEL-FRAGMENT-VIP, then the full
// L_RPC-VIP stack with the RPC anchors), plus side rungs that isolate the
// layers the paper's testbed does not use: IP routing, UDP/IP, VPOOL, and
// FRAGMENT's per-kilobyte cost. A rung's host ns minus its base rung's host
// ns is the self cost of the layer it adds. Every rung also reports its
// simulated round trip, so host ns and the paper's ms per layer read side by
// side.

#ifndef XK_HOSTBENCH_LADDER_H_
#define XK_HOSTBENCH_LADDER_H_

#include <string>
#include <vector>

#include "hostbench/spans.h"

namespace hostbench {

struct RungResult {
  const char* name;
  double host_ns = 0;  // host ns per round trip, fastest tenth of batches
  double sim_ms = 0;   // simulated round trip
  uint64_t round_trips = 0;
};

// One per-layer metric read off the ladder: `rung` minus `base` host ns,
// divided by `divisor`.
struct LadderMetric {
  const char* metric;
  const char* rung;
  const char* base;  // null: the rung's own cost
  double divisor;
  double value = 0;
  double sim_ms = 0;  // the same difference in simulated ms
};

struct LadderResult {
  std::vector<RungResult> rungs;
  std::vector<LadderMetric> metrics;
  std::string error;  // a round trip failed; empty otherwise
};

// Builds every rung, then measures them round-robin in batches for about
// `seconds` host seconds, so slow drift in the host hits every rung alike.
LadderResult RunLadder(double seconds, SpanRecorder* rec);

}  // namespace hostbench

#endif  // XK_HOSTBENCH_LADDER_H_
