#include "src/cluster/vpool.h"

#include <algorithm>

#include "src/core/hash.h"
#include "src/trace/trace.h"

namespace xk {

namespace {
// Virtual nodes per replica on the consistent-hash ring. 32 points smooth the
// per-key partition enough that 4-16 replicas each own a comparable arc.
constexpr int kVnodesPerReplica = 32;
}  // namespace

const char* VpoolPolicyName(VpoolPolicy policy) {
  switch (policy) {
    case VpoolPolicy::kRoundRobin:
      return "round_robin";
    case VpoolPolicy::kWeighted:
      return "weighted";
    case VpoolPolicy::kLeastOutstanding:
      return "least_outstanding";
    case VpoolPolicy::kHashAffinity:
      return "hash_affinity";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// VpoolProtocol
// ---------------------------------------------------------------------------

VpoolProtocol::VpoolProtocol(Kernel& kernel, Protocol* rpc, std::string name)
    : Protocol(kernel, std::move(name), {rpc}),
      rpc_(rpc),
      active_(*this),
      by_lls_(*this) {
  MarkIdleCapable();
}

void VpoolProtocol::BindService(IpAddr vip, std::vector<IpAddr> replicas, VpoolPolicy policy,
                                std::vector<uint32_t> weights) {
  vip_ = vip;
  policy_ = policy;
  replicas_.clear();
  replicas_.resize(replicas.size());
  for (size_t i = 0; i < replicas.size(); ++i) {
    replicas_[i].addr = replicas[i];
    replicas_[i].weight = i < weights.size() && weights[i] > 0 ? weights[i] : 1;
  }
  ring_.clear();
  for (size_t i = 0; i < replicas.size(); ++i) {
    for (int v = 0; v < kVnodesPerReplica; ++v) {
      const uint64_t point =
          HashCombine(XkHash<IpAddr>{}(replicas[i]), static_cast<uint64_t>(v));
      ring_.emplace_back(point, static_cast<int>(i));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

bool VpoolProtocol::Pickable(size_t idx, int avoid) const {
  const Replica& r = replicas_[idx];
  return r.up && static_cast<int>(idx) != avoid &&
         (concurrency_cap_ == 0 || r.outstanding < concurrency_cap_);
}

int VpoolProtocol::PickUp(uint64_t affinity_key, int avoid) {
  const size_t n = replicas_.size();
  if (n == 0) {
    return -1;
  }
  switch (policy_) {
    case VpoolPolicy::kRoundRobin: {
      for (size_t tried = 0; tried < n; ++tried) {
        const size_t idx = rr_next_++ % n;
        if (Pickable(idx, avoid)) {
          return static_cast<int>(idx);
        }
      }
      return -1;
    }
    case VpoolPolicy::kWeighted: {
      // Smooth weighted round-robin (nginx's algorithm): every up replica
      // gains its weight, the strict maximum wins and pays back the total.
      int64_t total = 0;
      int best = -1;
      for (size_t i = 0; i < n; ++i) {
        Replica& r = replicas_[i];
        if (!Pickable(i, avoid)) {
          continue;
        }
        r.wrr_current += r.weight;
        total += r.weight;
        if (best < 0 || r.wrr_current > replicas_[static_cast<size_t>(best)].wrr_current) {
          best = static_cast<int>(i);
        }
      }
      if (best >= 0) {
        replicas_[static_cast<size_t>(best)].wrr_current -= total;
      }
      return best;
    }
    case VpoolPolicy::kLeastOutstanding: {
      int best = -1;
      for (size_t i = 0; i < n; ++i) {
        const Replica& r = replicas_[i];
        if (!Pickable(i, avoid)) {
          continue;
        }
        if (best < 0 || r.outstanding < replicas_[static_cast<size_t>(best)].outstanding) {
          best = static_cast<int>(i);
        }
      }
      return best;
    }
    case VpoolPolicy::kHashAffinity: {
      if (ring_.empty()) {
        return -1;
      }
      const uint64_t h = MixBits(affinity_key);
      auto it = std::lower_bound(ring_.begin(), ring_.end(), std::make_pair(h, -1));
      // Walk clockwise from the first point at or after h until a pickable
      // replica owns the point; a down (or capped, or avoided) replica's arcs
      // fall to its ring successors.
      for (size_t tried = 0; tried < ring_.size(); ++tried) {
        if (it == ring_.end()) {
          it = ring_.begin();
        }
        if (Pickable(static_cast<size_t>(it->second), avoid)) {
          return it->second;
        }
        ++it;
      }
      return -1;
    }
  }
  return -1;
}

void VpoolProtocol::RecordOutcome(int idx, bool bad) {
  if (breaker_min_volume_ == 0) {
    return;  // breaker off: don't grow windows nobody reads
  }
  Replica& r = replicas_[static_cast<size_t>(idx)];
  ++r.window_calls;
  if (bad) {
    ++r.window_bad;
  }
  if (r.window_calls >= breaker_min_volume_ &&
      r.window_bad * 1000000 >= static_cast<uint64_t>(breaker_trip_ppm_) * r.window_calls) {
    ++breaker_trips_;
    r.window_calls = 0;
    r.window_bad = 0;
    // MarkDown's readmit probation doubles as the probe-before-readmit path:
    // the first call after probation either heals the window or re-trips.
    MarkDown(idx);
  }
}

void VpoolProtocol::MarkDown(int idx) {
  Replica& r = replicas_[static_cast<size_t>(idx)];
  if (!r.up) {
    return;
  }
  r.up = false;
  ++down_marks_;
  if (TraceSink* ts = kernel().trace_sink()) {
    ts->RecordEvent(kernel(), TraceOp::kReplicaDown, name(), kernel().now(), 0, nullptr,
                    nullptr, static_cast<uint64_t>(idx), StatusCode::kUnreachable);
  }
  kernel().CancelTimer(r.readmit_timer);
  if (readmit_after_ > 0) {
    r.readmit_timer = kernel().SetTimer(readmit_after_, [this, idx] { Readmit(idx); });
  }
}

void VpoolProtocol::Readmit(int idx) {
  Replica& r = replicas_[static_cast<size_t>(idx)];
  if (r.up) {
    return;
  }
  r.up = true;
  r.wrr_current = 0;
  r.window_calls = 0;
  r.window_bad = 0;
  ++readmits_;
  if (TraceSink* ts = kernel().trace_sink()) {
    ts->RecordEvent(kernel(), TraceOp::kReplicaReadmit, name(), kernel().now(), 0, nullptr,
                    nullptr, static_cast<uint64_t>(idx));
  }
}

Result<SessionRef> VpoolProtocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  if (!parts.peer.host.has_value() || !parts.peer.command.has_value()) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  if (replicas_.empty() || *parts.peer.host != vip_) {
    // Not our virtual service: a VPOOL configured into the stack must stay
    // transparent for ordinary (host, command) opens.
    return rpc_->Open(hlp, parts);
  }
  const uint16_t command = *parts.peer.command;
  if (SessionRef cached = active_.Resolve(command)) {
    cached->set_hlp(&hlp);
    return cached;
  }
  // Affinity identity: which client stack this is plus which procedure it
  // calls. Deterministic, and stable across crash/restart of the replicas.
  const uint64_t affinity_key =
      HashCombine(XkHash<IpAddr>{}(kernel().ip_addr()), command);
  kernel().ChargeSessionCreate();
  auto sess = sessions_.Create(*this, &hlp, command, affinity_key);
  TrackIdle(*sess);
  active_.Bind(command, sess);
  return SessionRef(sess);
}

Status VpoolProtocol::DoDemux(Session* lls, Message& msg) {
  if (lls == nullptr) {
    return ErrStatus(StatusCode::kInvalidArgument);
  }
  SessionRef sess = by_lls_.Resolve(lls);
  if (sess == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  auto rit = lls_replica_.find(lls);
  if (rit != lls_replica_.end()) {
    Replica& r = replicas_[static_cast<size_t>(rit->second)];
    if (r.outstanding > 0) {
      --r.outstanding;
    }
    auto iit = lls_inflight_.find(lls);
    if (iit != lls_inflight_.end() && iit->second > 0) {
      --iit->second;
    }
    RecordOutcome(rit->second, /*bad=*/false);
  }
  return sess->Pop(msg, lls);
}

void VpoolProtocol::SessionError(Session& lls, Status error, const Message* request) {
  SessionRef sess = by_lls_.Peek(&lls);
  if (sess == nullptr) {
    return;
  }
  auto rit = lls_replica_.find(&lls);
  if (rit != lls_replica_.end()) {
    Replica& r = replicas_[static_cast<size_t>(rit->second)];
    if (r.outstanding > 0) {
      --r.outstanding;
    }
    auto iit = lls_inflight_.find(&lls);
    if (iit != lls_inflight_.end() && iit->second > 0) {
      --iit->second;
    }
    const StatusCode code = error.code();
    if (code == StatusCode::kBusy || code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kResourceExhausted) {
      // Overload rejects are a load signal, not proof of death: feed the
      // breaker and keep routing until the bad ratio actually trips it.
      RecordOutcome(rit->second, /*bad=*/true);
    } else {
      // An asynchronous hard failure is how a crashed replica manifests here
      // (CHANNEL exhausted its retransmissions): stop routing to it.
      MarkDown(rit->second);
    }
  }
  if (sess->hlp() != nullptr) {
    // Headerless layer: the failing request passes up unchanged, so the
    // client above can identify WHICH call died (not just "the oldest").
    sess->hlp()->SessionError(*sess, error, request);
  }
}

Status VpoolProtocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetReplicasUp: {
      uint64_t up = 0;
      for (const Replica& r : replicas_) {
        up += r.up ? 1 : 0;
      }
      args.u64 = up;
      return OkStatus();
    }
    case ControlOp::kSetAvoidReplica: {
      avoid_once_ = static_cast<int>(static_cast<int64_t>(args.u64));
      return OkStatus();
    }
    case ControlOp::kGetLastPick: {
      args.u64 = static_cast<uint64_t>(static_cast<int64_t>(last_pick_));
      return OkStatus();
    }
    default: {
      // Idle-eviction ops are handled generically (this protocol is
      // idle-capable); anything else stays transparent to the stack below.
      Status s = Protocol::DoControl(op, args);
      if (s.ok() || s.code() != StatusCode::kUnsupported) {
        return s;
      }
      return rpc_->Control(op, args);
    }
  }
}

uint64_t VpoolProtocol::FlushLowers(VpoolSession& vs) {
  uint64_t dropped = 0;
  for (size_t i = 0; i < vs.lowers_.size(); ++i) {
    SessionRef& lower = vs.lowers_[i];
    if (lower == nullptr) {
      continue;
    }
    auto iit = lls_inflight_.find(lower.get());
    if (iit != lls_inflight_.end() && iit->second > 0) {
      continue;
    }
    by_lls_.Unbind(lower.get());
    lls_replica_.erase(lower.get());
    lls_inflight_.erase(lower.get());
    lower.reset();
    ++session_flushes_;
    ++dropped;
  }
  return dropped;
}

bool VpoolProtocol::EvictSession(Session& s) {
  auto& vs = static_cast<VpoolSession&>(s);
  // References this protocol's own maps hold: the command binding plus one
  // by_lls_ entry per bound lower. Anything beyond that is a client cache
  // (e.g. ClusterClient) still holding the session -- decline.
  uint32_t expected = active_.Peek(vs.command_).get() == &vs ? 1 : 0;
  for (const SessionRef& lower : vs.lowers_) {
    if (lower != nullptr && by_lls_.Peek(lower.get()).get() == &vs) {
      ++expected;
    }
  }
  if (vs.refs() > expected) {
    return false;
  }
  // Pin the session so dropping the map references one by one cannot destroy
  // it mid-function; the pin releases (and ~VpoolSession runs) on return.
  SessionRef pin(&vs);
  // CanEvict already established nothing is in flight, so every cached lower
  // flushes; then drop the command binding (the last owning reference).
  FlushLowers(vs);
  if (active_.Peek(vs.command_).get() == &vs) {
    active_.Unbind(vs.command_);
  }
  return true;
}

// ---------------------------------------------------------------------------
// VpoolSession
// ---------------------------------------------------------------------------

VpoolSession::VpoolSession(VpoolProtocol& owner, Protocol* hlp, uint16_t command,
                           uint64_t affinity_key)
    : Session(owner, hlp),
      pool_(owner),
      command_(command),
      affinity_key_(affinity_key),
      lowers_(owner.replicas_.size()) {}

Result<SessionRef> VpoolSession::LowerFor(int idx) {
  SessionRef& cached = lowers_[static_cast<size_t>(idx)];
  if (cached != nullptr) {
    return cached;
  }
  ParticipantSet parts;
  parts.peer.host = pool_.replicas_[static_cast<size_t>(idx)].addr;
  parts.peer.command = command_;
  Result<SessionRef> r = pool_.rpc_->Open(pool_, parts);
  if (!r.ok()) {
    return r.status();
  }
  cached = *r;
  pool_.by_lls_.Bind(cached.get(), Ref());
  pool_.lls_replica_[cached.get()] = idx;
  pool_.lls_inflight_[cached.get()] = 0;
  return cached;
}

Status VpoolSession::DoPush(Message& msg) {
  // Like VIP, the replica decision is "the cost of the single test" -- no
  // header, no copy; the message rides the chosen lower session unchanged.
  kernel().Charge(Usec(2));
  const size_t n = pool_.replicas_.size();
  // One-shot exclusion (kSetAvoidReplica): consumed by this push whether or
  // not the pick succeeds -- the hedger arms it immediately before pushing.
  const int avoid = pool_.avoid_once_;
  pool_.avoid_once_ = -1;
  for (size_t attempt = 0; attempt < n; ++attempt) {
    const int idx = pool_.PickUp(affinity_key_, avoid);
    if (idx < 0) {
      break;
    }
    Result<SessionRef> lower = LowerFor(idx);
    if (!lower.ok()) {
      // The open itself failed (e.g. no free channel state toward a dead
      // host): mark the replica down and let the policy reroute.
      ++pool_.rerouted_opens_;
      if (TraceSink* ts = kernel().trace_sink()) {
        ts->RecordEvent(kernel(), TraceOp::kReroute, pool_.name(), kernel().now(), 0, &msg,
                        this, static_cast<uint64_t>(idx), lower.status().code());
      }
      pool_.MarkDown(idx);
      continue;
    }
    VpoolProtocol::Replica& r = pool_.replicas_[static_cast<size_t>(idx)];
    if (TraceSink* ts = kernel().trace_sink()) {
      // The replica decision, visible per message: which backend this push
      // rides. A stitcher reads pick/reroute chains instead of inferring the
      // spreading policy from per-host spans.
      ts->RecordEvent(kernel(), TraceOp::kPick, pool_.name(), kernel().now(), 0, &msg, this,
                      static_cast<uint64_t>(idx));
    }
    ++r.calls;
    ++r.outstanding;
    pool_.last_pick_ = idx;
    ++pool_.lls_inflight_[lower->get()];
    Status s = (*lower)->Push(msg);
    if (!s.ok()) {
      // Synchronous push failure: unwind the accounting; the caller sees the
      // error directly, nothing stays in flight.
      if (r.outstanding > 0) {
        --r.outstanding;
      }
      auto iit = pool_.lls_inflight_.find(lower->get());
      if (iit != pool_.lls_inflight_.end() && iit->second > 0) {
        --iit->second;
      }
    }
    return s;
  }
  // Nothing pickable. Distinguish brownout from blackout: if some replica is
  // still up, the pick failed on caps (or the hedge exclusion) -- fail fast
  // with BUSY so the caller sheds instead of retrying a dead address.
  bool any_up = false;
  for (const VpoolProtocol::Replica& r : pool_.replicas_) {
    any_up = any_up || r.up;
  }
  if (any_up) {
    ++pool_.capped_rejects_;
    if (TraceSink* ts = kernel().trace_sink()) {
      ts->RecordEvent(kernel(), TraceOp::kReject, pool_.name(), kernel().now(), 0, &msg,
                      this, 0, StatusCode::kBusy);
    }
    return ErrStatus(StatusCode::kBusy);
  }
  ++pool_.all_down_failures_;
  return ErrStatus(StatusCode::kUnreachable);
}

Status VpoolSession::DoPop(Message& msg, Session* lls) {
  (void)lls;
  return DeliverUp(msg);
}

Status VpoolSession::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kGetPeerHost:
      args.ip = pool_.vip_;
      return OkStatus();
    case ControlOp::kGetMyHost:
      args.ip = kernel().ip_addr();
      return OkStatus();
    case ControlOp::kFlushSessions:
      // Connection churn: drop cached lower sessions that have nothing in
      // flight. Busy ones are skipped -- their replies still have to demux.
      // Same path idle eviction takes (FlushLowers).
      args.u64 = pool_.FlushLowers(*this);
      return OkStatus();
    default:
      return Session::DoControl(op, args);
  }
}

bool VpoolSession::CanEvict() const {
  for (const SessionRef& lower : lowers_) {
    if (lower == nullptr) {
      continue;
    }
    auto iit = pool_.lls_inflight_.find(lower.get());
    if (iit != pool_.lls_inflight_.end() && iit->second > 0) {
      return false;  // a reply still has to demux through this session
    }
  }
  return true;
}

Session* VpoolSession::lower_for_control() const {
  for (const SessionRef& lower : lowers_) {
    if (lower != nullptr) {
      return lower.get();
    }
  }
  return nullptr;
}

}  // namespace xk
