#include "src/sim/fault.h"

#include <cstdio>
#include <cstdlib>

#include "src/core/kernel.h"
#include "src/proto/topology.h"

namespace xk {

namespace {

// Formats a time with the coarsest unit that represents it exactly, so
// Parse(ToString()) round-trips and the common cases read naturally.
std::string TimeStr(SimTime t) {
  if (t != 0 && t % Sec(1) == 0) {
    return std::to_string(t / Sec(1)) + "s";
  }
  if (t % Msec(1) == 0) {
    return std::to_string(t / Msec(1)) + "ms";
  }
  if (t % Usec(1) == 0) {
    return std::to_string(t / Usec(1)) + "us";
  }
  return std::to_string(t) + "ns";
}

std::string RateStr(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", r);
  return buf;
}

bool ParseTime(const std::string& v, SimTime* out) {
  char* end = nullptr;
  const double num = std::strtod(v.c_str(), &end);
  if (end == v.c_str()) {
    return false;
  }
  const std::string suffix(end);
  double mult;
  if (suffix == "s") {
    mult = 1e9;
  } else if (suffix == "ms") {
    mult = 1e6;
  } else if (suffix == "us") {
    mult = 1e3;
  } else if (suffix == "ns" || suffix.empty()) {
    mult = 1.0;
  } else {
    return false;
  }
  *out = static_cast<SimTime>(num * mult);
  return true;
}

bool ParseDouble(const std::string& v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0';
}

// Splits `s` on `sep`, keeping empty tokens out.
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      end = s.size();
    }
    if (end > start) {
      out.push_back(s.substr(start, end - start));
    }
    start = end + 1;
  }
  return out;
}

bool ParseClause(const std::string& token, FaultPlan* plan, std::string* error) {
  const size_t colon = token.find(':');
  const std::string kind = token.substr(0, colon);
  const std::string rest = colon == std::string::npos ? "" : token.substr(colon + 1);

  if (kind == "seed") {
    char* end = nullptr;
    plan->seed = std::strtoull(rest.c_str(), &end, 10);
    if (end == rest.c_str() || *end != '\0') {
      if (error != nullptr) {
        *error = "bad value '" + rest + "' for seed";
      }
      return false;
    }
    return true;
  }

  FaultClause c;
  if (kind == "partition") {
    c.kind = FaultClause::Kind::kPartition;
  } else if (kind == "drop") {
    c.kind = FaultClause::Kind::kDropWindow;
  } else if (kind == "ge") {
    c.kind = FaultClause::Kind::kGilbertElliott;
  } else if (kind == "dup") {
    c.kind = FaultClause::Kind::kDuplicateStorm;
  } else if (kind == "delay") {
    c.kind = FaultClause::Kind::kDelaySpike;
  } else if (kind == "corrupt") {
    c.kind = FaultClause::Kind::kCorruptWindow;
  } else if (kind == "crash") {
    c.kind = FaultClause::Kind::kCrash;
  } else {
    if (error != nullptr) {
      *error = "unknown fault kind '" + kind + "'";
    }
    return false;
  }

  for (const std::string& pair : Split(rest, ',')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = "expected key=value, got '" + pair + "'";
      }
      return false;
    }
    const std::string key = pair.substr(0, eq);
    const std::string val = pair.substr(eq + 1);
    bool ok = true;
    if (key == "seg") {
      char* end = nullptr;
      const long seg = std::strtol(val.c_str(), &end, 10);
      ok = end != val.c_str() && *end == '\0' && seg >= -1;  // -1 = all segments
      c.segment = static_cast<int>(seg);
    } else if (key == "from") {
      ok = ParseTime(val, &c.from);
    } else if (key == "until") {
      ok = ParseTime(val, &c.until);
    } else if (key == "rate") {
      ok = ParseDouble(val, &c.rate);
    } else if (key == "delay") {
      ok = ParseTime(val, &c.delay);
    } else if (key == "p_enter") {
      ok = ParseDouble(val, &c.p_enter);
    } else if (key == "p_exit") {
      ok = ParseDouble(val, &c.p_exit);
    } else if (key == "loss_good") {
      ok = ParseDouble(val, &c.loss_good);
    } else if (key == "loss_bad") {
      ok = ParseDouble(val, &c.loss_bad);
    } else if (key == "host") {
      c.host = val;
    } else if (key == "at") {
      ok = ParseTime(val, &c.at);
    } else if (key == "restart") {
      ok = ParseTime(val, &c.restart_at);
    } else {
      if (error != nullptr) {
        *error = "unknown key '" + key + "' in '" + kind + "' clause";
      }
      return false;
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "bad value '" + val + "' for key '" + key + "'";
      }
      return false;
    }
  }

  if (c.kind == FaultClause::Kind::kCrash && c.host.empty()) {
    if (error != nullptr) {
      *error = "crash clause needs host=";
    }
    return false;
  }
  plan->clauses.push_back(std::move(c));
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

FaultPlan& FaultPlan::Partition(int segment, SimTime from, SimTime until) {
  FaultClause c;
  c.kind = FaultClause::Kind::kPartition;
  c.segment = segment;
  c.from = from;
  c.until = until;
  clauses.push_back(std::move(c));
  return *this;
}

FaultPlan& FaultPlan::DropWindow(int segment, SimTime from, SimTime until, double rate) {
  FaultClause c;
  c.kind = FaultClause::Kind::kDropWindow;
  c.segment = segment;
  c.from = from;
  c.until = until;
  c.rate = rate;
  clauses.push_back(std::move(c));
  return *this;
}

FaultPlan& FaultPlan::GilbertElliott(int segment, SimTime from, SimTime until, double p_enter,
                                     double p_exit, double loss_good, double loss_bad) {
  FaultClause c;
  c.kind = FaultClause::Kind::kGilbertElliott;
  c.segment = segment;
  c.from = from;
  c.until = until;
  c.p_enter = p_enter;
  c.p_exit = p_exit;
  c.loss_good = loss_good;
  c.loss_bad = loss_bad;
  clauses.push_back(std::move(c));
  return *this;
}

FaultPlan& FaultPlan::DuplicateStorm(int segment, SimTime from, SimTime until, double rate) {
  FaultClause c;
  c.kind = FaultClause::Kind::kDuplicateStorm;
  c.segment = segment;
  c.from = from;
  c.until = until;
  c.rate = rate;
  clauses.push_back(std::move(c));
  return *this;
}

FaultPlan& FaultPlan::DelaySpike(int segment, SimTime from, SimTime until, double rate,
                                 SimTime delay) {
  FaultClause c;
  c.kind = FaultClause::Kind::kDelaySpike;
  c.segment = segment;
  c.from = from;
  c.until = until;
  c.rate = rate;
  c.delay = delay;
  clauses.push_back(std::move(c));
  return *this;
}

FaultPlan& FaultPlan::CorruptWindow(int segment, SimTime from, SimTime until, double rate) {
  FaultClause c;
  c.kind = FaultClause::Kind::kCorruptWindow;
  c.segment = segment;
  c.from = from;
  c.until = until;
  c.rate = rate;
  clauses.push_back(std::move(c));
  return *this;
}

FaultPlan& FaultPlan::Crash(const std::string& host, SimTime at, SimTime restart_at) {
  FaultClause c;
  c.kind = FaultClause::Kind::kCrash;
  c.host = host;
  c.at = at;
  c.restart_at = restart_at;
  clauses.push_back(std::move(c));
  return *this;
}

bool FaultPlan::HasLinkClauses() const {
  for (const FaultClause& c : clauses) {
    if (c.kind != FaultClause::Kind::kCrash) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::HasCrashClauses() const {
  for (const FaultClause& c : clauses) {
    if (c.kind == FaultClause::Kind::kCrash) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::Parse(const std::string& spec, FaultPlan* out, std::string* error) {
  FaultPlan plan;
  for (const std::string& token : Split(spec, ';')) {
    if (!ParseClause(token, &plan, error)) {
      return false;
    }
  }
  *out = std::move(plan);
  return true;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultClause& c : clauses) {
    if (!out.empty()) {
      out += ';';
    }
    const std::string window = "seg=" + std::to_string(c.segment) +
                               ",from=" + TimeStr(c.from) + ",until=" + TimeStr(c.until);
    switch (c.kind) {
      case FaultClause::Kind::kPartition:
        out += "partition:" + window;
        break;
      case FaultClause::Kind::kDropWindow:
        out += "drop:" + window + ",rate=" + RateStr(c.rate);
        break;
      case FaultClause::Kind::kGilbertElliott:
        out += "ge:" + window + ",p_enter=" + RateStr(c.p_enter) +
               ",p_exit=" + RateStr(c.p_exit) + ",loss_good=" + RateStr(c.loss_good) +
               ",loss_bad=" + RateStr(c.loss_bad);
        break;
      case FaultClause::Kind::kDuplicateStorm:
        out += "dup:" + window + ",rate=" + RateStr(c.rate);
        break;
      case FaultClause::Kind::kDelaySpike:
        out += "delay:" + window + ",rate=" + RateStr(c.rate) + ",delay=" + TimeStr(c.delay);
        break;
      case FaultClause::Kind::kCorruptWindow:
        out += "corrupt:" + window + ",rate=" + RateStr(c.rate);
        break;
      case FaultClause::Kind::kCrash:
        out += "crash:host=" + c.host + ",at=" + TimeStr(c.at);
        if (c.restart_at != 0) {
          out += ",restart=" + TimeStr(c.restart_at);
        }
        break;
    }
  }
  if (seed != 1) {
    if (!out.empty()) {
      out += ';';
    }
    out += "seed:" + std::to_string(seed);
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultEngine
// ---------------------------------------------------------------------------

FaultEngine::FaultEngine(Internet& net, FaultPlan plan) : net_(net), plan_(std::move(plan)) {
  segs_.reserve(net_.num_segments());
  for (size_t i = 0; i < net_.num_segments(); ++i) {
    // Independent per-segment streams so adding a segment never shifts the
    // draws another segment sees.
    segs_.push_back(
        SegmentState{Rng(plan_.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1))), false});
  }
  if (plan_.HasLinkClauses()) {
    hooks_installed_ = true;
    for (size_t i = 0; i < net_.num_segments(); ++i) {
      const int seg = static_cast<int>(i);
      net_.segment(seg).set_fault_hook_ex(
          [this, seg](const EthFrame& frame, int receiver_id, uint64_t delivery_index,
                      SimTime arrival) {
            (void)receiver_id;
            (void)delivery_index;
            return Decide(seg, frame, arrival);
          });
    }
  }
  for (const FaultClause& c : plan_.clauses) {
    if (c.kind != FaultClause::Kind::kCrash) {
      continue;
    }
    Kernel* k = net_.host(c.host).kernel;
    const SimTime restart_delay = c.restart_at > c.at ? c.restart_at - c.at : 0;
    k->ScheduleTask(c.at - k->events().now(), [this, host = c.host, restart_delay]() {
      net_.CrashHost(host);
      if (restart_delay > 0) {
        // Scheduled AFTER Crash() cleared the pending registry, so this
        // handle survives the crash and brings the host back.
        net_.host(host).kernel->ScheduleTask(restart_delay,
                                             [this, host]() { net_.RestartHost(host); });
      }
    });
  }
}

FaultEngine::~FaultEngine() {
  if (hooks_installed_) {
    for (size_t i = 0; i < net_.num_segments(); ++i) {
      net_.segment(static_cast<int>(i)).set_fault_hook_ex(nullptr);
    }
  }
}

DeliveryFault FaultEngine::Decide(int segment_id, const EthFrame& frame, SimTime arrival) {
  ++decisions_;
  DeliveryFault out;
  SegmentState& st = segs_[segment_id];
  bool drop = false;
  bool corrupt = false;
  bool duplicate = false;
  for (const FaultClause& c : plan_.clauses) {
    if (c.kind == FaultClause::Kind::kCrash) {
      continue;
    }
    if (c.segment >= 0 && c.segment != segment_id) {
      continue;
    }
    if (arrival < c.from || (c.until != 0 && arrival >= c.until)) {
      continue;
    }
    switch (c.kind) {
      case FaultClause::Kind::kPartition:
        drop = true;
        break;
      case FaultClause::Kind::kDropWindow:
        drop = st.rng.Chance(c.rate) || drop;
        break;
      case FaultClause::Kind::kGilbertElliott:
        // Step the chain on every frame in the window, before sampling loss,
        // so the burst structure is independent of other clauses.
        if (st.ge_bad) {
          if (st.rng.Chance(c.p_exit)) {
            st.ge_bad = false;
          }
        } else if (st.rng.Chance(c.p_enter)) {
          st.ge_bad = true;
        }
        drop = st.rng.Chance(st.ge_bad ? c.loss_bad : c.loss_good) || drop;
        break;
      case FaultClause::Kind::kDuplicateStorm:
        duplicate = st.rng.Chance(c.rate) || duplicate;
        break;
      case FaultClause::Kind::kDelaySpike:
        if (st.rng.Chance(c.rate)) {
          out.extra_delay += c.delay;
        }
        break;
      case FaultClause::Kind::kCorruptWindow:
        corrupt = st.rng.Chance(c.rate) || corrupt;
        break;
      case FaultClause::Kind::kCrash:
        break;
    }
  }
  // Severity order: a dropped frame can't also be corrupted or duplicated.
  if (drop) {
    out.verdict = LinkFault::kDrop;
  } else if (corrupt) {
    out.verdict = LinkFault::kCorrupt;
    if (!frame.msg.empty()) {
      out.corrupt_offset = st.rng.NextBelow(frame.msg.length());
    }
  } else if (duplicate) {
    out.verdict = LinkFault::kDuplicate;
  }
  return out;
}

}  // namespace xk
