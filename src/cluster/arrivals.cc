#include "src/cluster/arrivals.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/app/oracle.h"
#include "src/trace/trace.h"

namespace xk {

namespace {

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

}  // namespace

// ---------------------------------------------------------------------------
// ArrivalSpec
// ---------------------------------------------------------------------------

bool ArrivalSpec::Parse(const std::string& text, ArrivalSpec* out, std::string* error) {
  ArrivalSpec spec;
  const size_t colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  if (kind == "poisson") {
    spec.kind = Kind::kPoisson;
  } else if (kind == "onoff") {
    spec.kind = Kind::kOnOff;
  } else {
    if (error != nullptr) {
      *error = "unknown arrival kind '" + kind + "'";
    }
    return false;
  }
  const std::string rest = colon == std::string::npos ? "" : text.substr(colon + 1);
  size_t start = 0;
  while (start < rest.size()) {
    size_t end = rest.find(',', start);
    if (end == std::string::npos) {
      end = rest.size();
    }
    const std::string pair = rest.substr(start, end - start);
    start = end + 1;
    if (pair.empty()) {
      continue;
    }
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
    if (key == "rate") {
      ok = ParseDouble(val, &spec.rate_cps);
    } else if (key == "off_rate") {
      ok = ParseDouble(val, &spec.off_rate_cps);
    } else if (key == "on") {
      ok = ParseTime(val, &spec.on_for);
    } else if (key == "off") {
      ok = ParseTime(val, &spec.off_for);
    } else if (key == "horizon") {
      ok = ParseTime(val, &spec.horizon);
    } else if (key == "churn") {
      char* e = nullptr;
      const long n = std::strtol(val.c_str(), &e, 10);
      ok = e != val.c_str() && *e == '\0' && n >= 0;
      spec.churn_every = static_cast<int>(n);
    } else if (key == "seed") {
      char* e = nullptr;
      spec.seed = std::strtoull(val.c_str(), &e, 10);
      ok = e != val.c_str() && *e == '\0';
    } else {
      if (error != nullptr) {
        *error = "unknown key '" + key + "' in '" + kind + "' arrivals";
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
  if (spec.rate_cps < 0 || spec.off_rate_cps < 0) {
    if (error != nullptr) {
      *error = "arrival rates must be >= 0";
    }
    return false;
  }
  if (spec.kind == Kind::kOnOff && (spec.on_for <= 0 || spec.off_for <= 0)) {
    if (error != nullptr) {
      *error = "onoff arrivals need on= and off= phase lengths > 0";
    }
    return false;
  }
  if (spec.horizon <= 0) {
    if (error != nullptr) {
      *error = "arrivals need horizon= > 0";
    }
    return false;
  }
  *out = spec;
  return true;
}

std::string ArrivalSpec::ToString() const {
  std::string out = kind == Kind::kPoisson ? "poisson:" : "onoff:";
  out += "rate=" + RateStr(rate_cps);
  if (kind == Kind::kOnOff) {
    out += ",off_rate=" + RateStr(off_rate_cps);
    out += ",on=" + TimeStr(on_for);
    out += ",off=" + TimeStr(off_for);
  }
  out += ",horizon=" + TimeStr(horizon);
  if (churn_every > 0) {
    out += ",churn=" + std::to_string(churn_every);
  }
  out += ",seed=" + std::to_string(seed);
  return out;
}

// ---------------------------------------------------------------------------
// OpenLoopGen
// ---------------------------------------------------------------------------

OpenLoopGen::OpenLoopGen(Kernel& kernel, ClusterClient& client, AmoOracle& oracle,
                         const ArrivalSpec& spec, IpAddr service, uint16_t command,
                         size_t payload_bytes, uint64_t id_base)
    : kernel_(kernel),
      client_(client),
      oracle_(oracle),
      spec_(spec),
      service_(service),
      command_(command),
      payload_bytes_(payload_bytes),
      id_base_(id_base),
      rng_(spec.seed) {}

SimTime OpenLoopGen::ExpGap(double rate_cps) {
  // Inverse-CDF exponential draw in nanoseconds. NextDouble is in [0, 1), so
  // log1p(-u) is finite; clamp to 1ns so arrivals strictly advance.
  const double u = rng_.NextDouble();
  const double gap_ns = -std::log1p(-u) * 1e9 / rate_cps;
  return std::max<SimTime>(1, static_cast<SimTime>(std::llround(gap_ns)));
}

SimTime OpenLoopGen::NextArrivalAfter(SimTime t) {
  if (spec_.kind == ArrivalSpec::Kind::kPoisson) {
    if (spec_.rate_cps <= 0) {
      return spec_.horizon;  // never: caller stops at the horizon
    }
    return t + ExpGap(spec_.rate_cps);
  }
  // On-off: two Poisson rates alternating on a fixed phase clock. A draw that
  // crosses the phase boundary is redrawn from the boundary -- exact, because
  // the exponential is memoryless.
  const SimTime cycle = spec_.on_for + spec_.off_for;
  for (int guard = 0; guard < 1000000; ++guard) {
    const SimTime pos = t % cycle;
    const bool on = pos < spec_.on_for;
    const SimTime boundary = t - pos + (on ? spec_.on_for : cycle);
    const double rate = on ? spec_.rate_cps : spec_.off_rate_cps;
    if (rate <= 0) {
      if (boundary >= spec_.horizon) {
        return spec_.horizon;
      }
      t = boundary;
      continue;
    }
    const SimTime gap = ExpGap(rate);
    if (t + gap <= boundary) {
      return t + gap;
    }
    if (boundary >= spec_.horizon) {
      return spec_.horizon;
    }
    t = boundary;
  }
  return spec_.horizon;
}

void OpenLoopGen::OnDone(uint64_t seq, const Result<Message>& r) {
  const uint64_t id = id_base_ | seq;
  const SimTime at = issued_at_[seq - 1];
  const auto phase = static_cast<size_t>(PhaseIndexFor(at));
  const SimTime done_at = kernel_.now();
  if (TraceSink* ts = kernel_.trace_sink()) {
    ts->RecordEvent(kernel_, TraceOp::kDone, "gen", done_at, id, r.ok() ? &*r : nullptr, nullptr,
                    0, r.ok() ? StatusCode::kOk : r.status().code());
  }
  oracle_.RecordOutcome(id, r, done_at);
  rtt_.Record(done_at - at);
  last_done_at_ = std::max(last_done_at_, done_at);
  if (r.ok()) {
    ++completed_;
    ++phases_[phase].completed;
    return;
  }
  ++failed_;
  ++phases_[phase].failed;
  switch (r.status().code()) {
    case StatusCode::kDeadlineExceeded:
      ++shed_;
      break;
    case StatusCode::kBusy:
      ++rejected_;
      break;
    case StatusCode::kResourceExhausted:
      ++budget_exhausted_;
      break;
    default:
      break;
  }
}

int OpenLoopGen::PhaseIndexFor(SimTime issue_at) const {
  if (phase_until_ <= phase_from_) {
    return 0;
  }
  if (issue_at < phase_from_) {
    return 0;
  }
  return issue_at < phase_until_ ? 1 : 2;
}

void OpenLoopGen::Start() {
  const SimTime first = NextArrivalAfter(0);
  if (first >= spec_.horizon) {
    return;
  }
  kernel_.ScheduleTask(first, [this, first] { IssueAt(first); });
}

void OpenLoopGen::IssueAt(SimTime at) {
  // Chain the next arrival first: issuance must not depend on this call's
  // fate (that is what makes the loop open). ScheduleTask counts from the
  // event clock, which still reads this arrival's timestamp even when the
  // simulated CPU is backlogged.
  const SimTime next = NextArrivalAfter(at);
  if (next < spec_.horizon) {
    kernel_.ScheduleTask(next - at, [this, next] { IssueAt(next); });
  }

  const uint64_t id = id_base_ | ++seq_;
  ++issued_;
  issued_at_.push_back(at);
  ++phases_[static_cast<size_t>(PhaseIndexFor(at))].issued;
  oracle_.RecordIssued(id, at);
  Message request = AmoOracle::MakeRequest(id, payload_bytes_);
  if (deadline_ > 0) {
    request.set_deadline(at + deadline_);
  }
  if (TraceSink* ts = kernel_.trace_sink()) {
    // Stamp the scheduled arrival (not "now") so a causal stitcher's
    // reconstructed RTT matches the histogram's done_at - at exactly, and
    // bind the request message's trace id to the oracle call id.
    ts->RecordEvent(kernel_, TraceOp::kIssue, "gen", at, id, &request, nullptr, 0);
  }
  // Two words of capture: the closure fits std::function's inline storage.
  client_.Call(service_, command_, id, std::move(request),
               [this, seq = seq_](Result<Message> r) { OnDone(seq, r); });

  if (spec_.churn_every > 0 && seq_ % static_cast<uint64_t>(spec_.churn_every) == 0) {
    client_.Evict(service_, command_);
  }
}

}  // namespace xk
