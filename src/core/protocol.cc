#include "src/core/protocol.h"

#include "src/core/kernel.h"
#include "src/trace/trace.h"

namespace xk {

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(Protocol& owner, Protocol* hlp)
    : owner_(owner), hlp_(hlp), kernel_(owner.kernel()) {}

Session::~Session() {
  if (idle_linked_) {
    owner_.UnlinkIdle(*this);
  }
}

void Session::NoteActivity() {
  if (idle_eligible_) {
    owner_.TouchIdle(*this);
  }
}

Status Session::Push(Message& msg) {
  Kernel& k = kernel();
  ProtoCounters& c = owner_.counters();
  ++c.msgs_out;
  c.bytes_out += msg.length();
  NoteActivity();
  TraceSpan span(k.trace_sink(), k, TraceOp::kPush, owner_, this, &msg);
  k.ChargeLayerCross();
  return span.Finish(DoPush(msg));
}

Status Session::Pop(Message& msg, Session* lls) {
  Kernel& k = kernel();
  NoteActivity();
  TraceSpan span(k.trace_sink(), k, TraceOp::kPop, owner_, this, &msg);
  return span.Finish(DoPop(msg, lls));
}

Status Session::Control(ControlOp op, ControlArgs& args) {
  kernel().ChargeProcCall();
  Status s = DoControl(op, args);
  if (s.code() == StatusCode::kUnsupported && lower_for_control() != nullptr) {
    return lower_for_control()->Control(op, args);
  }
  return s;
}

Status Session::DoControl(ControlOp op, ControlArgs& args) {
  (void)op;
  (void)args;
  return ErrStatus(StatusCode::kUnsupported);
}

Status Session::DeliverUp(Message& msg) {
  if (hlp_ == nullptr) {
    return ErrStatus(StatusCode::kNotFound);
  }
  return hlp_->Demux(this, msg);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

Protocol::Protocol(Kernel& kernel, std::string name, std::vector<Protocol*> lowers)
    : kernel_(kernel), name_(std::move(name)), lowers_(std::move(lowers)) {}

Protocol::~Protocol() {
  // Sessions can outlive their protocol (crash teardown, stray test refs);
  // detach any still-linked ones so their destructors don't call back into a
  // dead protocol.
  for (Session* s = idle_.head; s != nullptr;) {
    Session* next = s->idle_next_;
    s->idle_prev_ = nullptr;
    s->idle_next_ = nullptr;
    s->idle_linked_ = false;
    s->idle_eligible_ = false;
    s = next;
  }
}

Result<SessionRef> Protocol::Open(Protocol& hlp, const ParticipantSet& parts) {
  ++counters_.opens;
  TraceSpan span(kernel_.trace_sink(), kernel_, TraceOp::kOpen, *this, nullptr, nullptr);
  kernel_.ChargeProcCall();
  Result<SessionRef> r = DoOpen(hlp, parts);
  (void)span.Finish(r.ok() ? OkStatus() : r.status());
  return r;
}

void Protocol::OpenAsync(Protocol& hlp, const ParticipantSet& parts, OpenCallback done) {
  done(Open(hlp, parts));
}

Status Protocol::OpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  ++counters_.open_enables;
  kernel_.ChargeProcCall();
  return DoOpenEnable(hlp, parts);
}

Status Protocol::OpenDisable(Protocol& hlp, const ParticipantSet& parts) {
  (void)hlp;
  (void)parts;
  return ErrStatus(StatusCode::kUnsupported);
}

Status Protocol::Demux(Session* lls, Message& msg) {
  ++counters_.msgs_in;
  counters_.bytes_in += msg.length();
  TraceSpan span(kernel_.trace_sink(), kernel_, TraceOp::kDemux, *this, lls, &msg);
  kernel_.ChargeLayerCross();
  Status s = DoDemux(lls, msg);
  if (!s.ok()) {
    ++counters_.demux_drops;
  }
  return span.Finish(s);
}

Status Protocol::OpenDoneUp(Protocol& llp, SessionRef lls, const ParticipantSet& parts) {
  (void)llp;
  (void)lls;
  (void)parts;
  return OkStatus();
}

void Protocol::SessionError(Session& lls, Status error, const Message* request) {
  (void)lls;
  (void)error;
  (void)request;
}

Status Protocol::Control(ControlOp op, ControlArgs& args) {
  kernel_.ChargeProcCall();
  Status s = DoControl(op, args);
  if (s.code() == StatusCode::kUnsupported && lower(0) != nullptr) {
    return lower(0)->Control(op, args);
  }
  return s;
}

Result<SessionRef> Protocol::DoOpen(Protocol& hlp, const ParticipantSet& parts) {
  (void)hlp;
  (void)parts;
  return ErrStatus(StatusCode::kUnsupported);
}

Status Protocol::DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) {
  (void)hlp;
  (void)parts;
  return ErrStatus(StatusCode::kUnsupported);
}

Status Protocol::DoControl(ControlOp op, ControlArgs& args) {
  switch (op) {
    case ControlOp::kSetIdleTimeout:
      if (!idle_.capable) {
        break;
      }
      idle_.timeout = args.u64;
      if (idle_.timeout == 0) {
        if (idle_.sweep_armed) {
          kernel_.CancelTimer(idle_.sweep);
          idle_.sweep_armed = false;
        }
      } else {
        ArmIdleSweep();
      }
      return OkStatus();
    case ControlOp::kGetIdleTimeout:
      if (!idle_.capable) {
        break;
      }
      args.u64 = idle_.timeout;
      return OkStatus();
    case ControlOp::kEvictIdle:
      if (!idle_.capable) {
        break;
      }
      args.u64 = EvictIdle(args.u64);
      return OkStatus();
    default:
      break;
  }
  return ErrStatus(StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Idle-session tracking and eviction
// ---------------------------------------------------------------------------

void Protocol::TrackIdle(Session& s) {
  s.idle_eligible_ = true;
  TouchIdle(s);
}

void Protocol::TouchIdle(Session& s) {
  s.last_active_ = kernel_.now();
  if (s.idle_linked_ && idle_.tail == &s) {
    return;  // already the hot end; just restamped
  }
  UnlinkIdle(s);
  s.idle_prev_ = idle_.tail;
  s.idle_next_ = nullptr;
  if (idle_.tail != nullptr) {
    idle_.tail->idle_next_ = &s;
  } else {
    idle_.head = &s;
  }
  idle_.tail = &s;
  s.idle_linked_ = true;
  ++idle_.tracked;
  ArmIdleSweep();
}

void Protocol::UnlinkIdle(Session& s) {
  if (!s.idle_linked_) {
    return;
  }
  if (s.idle_prev_ != nullptr) {
    s.idle_prev_->idle_next_ = s.idle_next_;
  } else {
    idle_.head = s.idle_next_;
  }
  if (s.idle_next_ != nullptr) {
    s.idle_next_->idle_prev_ = s.idle_prev_;
  } else {
    idle_.tail = s.idle_prev_;
  }
  s.idle_prev_ = nullptr;
  s.idle_next_ = nullptr;
  s.idle_linked_ = false;
  --idle_.tracked;
}

void Protocol::ArmIdleSweep() {
  if (idle_.sweep_armed || idle_.timeout == 0 || idle_.head == nullptr) {
    return;
  }
  const SimTime now = kernel_.now();
  const SimTime deadline = idle_.head->last_active_ + idle_.timeout;
  idle_.sweep_armed = true;
  idle_.sweep = kernel_.SetTimer(deadline > now ? deadline - now : 0, [this] { IdleSweep(); });
}

void Protocol::IdleSweep() {
  idle_.sweep_armed = false;
  if (idle_.timeout == 0) {
    return;
  }
  (void)EvictIdle(idle_.timeout);
  // One-shot re-arm for the new cold end; no timer at all once the list
  // drains, so an idle protocol never keeps the simulation alive.
  ArmIdleSweep();
}

bool Protocol::EvictSession(Session& s) {
  (void)s;
  return false;
}

uint64_t Protocol::EvictIdle(SimTime min_idle) {
  const SimTime now = kernel_.now();
  uint64_t dropped = 0;
  while (idle_.head != nullptr) {
    Session* s = idle_.head;
    if (now - s->last_active_ < min_idle) {
      break;  // LRU order: everything behind the head is younger still
    }
    UnlinkIdle(*s);
    if (!s->CanEvict()) {
      ++idle_.declined;  // parked; next activity relinks it
      continue;
    }
    // EvictSession drops the protocol's owning refs, which may destroy `s`
    // before it returns -- mark it disowned first and don't touch it after.
    // The event reads the session's trace id before the eviction for the
    // same reason.
    TraceSink* ts = kernel_.trace_sink();
    const SimTime idle_for = now - s->last_active_;
    s->idle_eligible_ = false;
    if (ts != nullptr) {
      ts->RecordEvent(kernel_, TraceOp::kEvict, name_, now, 0, nullptr, s,
                      static_cast<uint64_t>(idle_for));
    }
    if (EvictSession(*s)) {
      kernel_.ChargeSessionDestroy();
      ++idle_.evicted;
      ++dropped;
    } else {
      s->idle_eligible_ = true;
      ++idle_.declined;
    }
  }
  return dropped;
}

void Protocol::ExportCounters(const CounterEmit& emit) const {
  emit("msgs_out", counters_.msgs_out);
  emit("bytes_out", counters_.bytes_out);
  emit("msgs_in", counters_.msgs_in);
  emit("bytes_in", counters_.bytes_in);
  emit("opens", counters_.opens);
  emit("open_enables", counters_.open_enables);
  emit("demux_drops", counters_.demux_drops);
  emit("map_hits", counters_.map_hits);
  emit("map_misses", counters_.map_misses);
  if (idle_.capable) {
    emit("idle_evictions", idle_.evicted);
    emit("idle_declined", idle_.declined);
  }
}

// ---------------------------------------------------------------------------
// Control helpers
// ---------------------------------------------------------------------------

Result<uint64_t> CtlGetU64(Protocol& p, ControlOp op) {
  ControlArgs args;
  Status s = p.Control(op, args);
  if (!s.ok()) {
    return s;
  }
  return args.u64;
}

Result<uint64_t> CtlGetU64(Session& s, ControlOp op) {
  ControlArgs args;
  Status st = s.Control(op, args);
  if (!st.ok()) {
    return st;
  }
  return args.u64;
}

Result<IpAddr> CtlGetIp(Session& s, ControlOp op) {
  ControlArgs args;
  Status st = s.Control(op, args);
  if (!st.ok()) {
    return st;
  }
  return args.ip;
}

}  // namespace xk
