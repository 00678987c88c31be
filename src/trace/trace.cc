#include "src/trace/trace.h"

#include <cassert>

#include "src/core/kernel.h"
#include "src/core/message.h"
#include "src/core/protocol.h"
#include "src/trace/json_util.h"

namespace xk {

namespace {
thread_local TraceSink* g_thread_default = nullptr;
}  // namespace

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kPush:
      return "push";
    case TraceOp::kPop:
      return "pop";
    case TraceOp::kDemux:
      return "demux";
    case TraceOp::kOpen:
      return "open";
    case TraceOp::kIntr:
      return "intr";
    case TraceOp::kIssue:
      return "issue";
    case TraceOp::kDone:
      return "done";
    case TraceOp::kExec:
      return "exec";
    case TraceOp::kRetransmit:
      return "rexmit";
    case TraceOp::kGiveUp:
      return "giveup";
    case TraceOp::kPick:
      return "pick";
    case TraceOp::kReroute:
      return "reroute";
    case TraceOp::kReplicaDown:
      return "replica_down";
    case TraceOp::kReplicaReadmit:
      return "replica_readmit";
    case TraceOp::kEvict:
      return "evict";
    case TraceOp::kForward:
      return "forward";
    case TraceOp::kTtlDrop:
      return "ttl_drop";
    case TraceOp::kNoRoute:
      return "no_route";
    case TraceOp::kCrash:
      return "crash";
    case TraceOp::kRestart:
      return "restart";
    case TraceOp::kShed:
      return "shed";
    case TraceOp::kReject:
      return "reject";
    case TraceOp::kBudgetExhausted:
      return "budget_exhausted";
    case TraceOp::kHedge:
      return "hedge";
    case TraceOp::kHedgeCancel:
      return "hedge_cancel";
  }
  return "?";
}

TraceSink* TraceSink::thread_default() { return g_thread_default; }

void TraceSink::set_thread_default(TraceSink* sink) { g_thread_default = sink; }

TraceSink::TraceSink(size_t max_records) : max_records_(max_records) {}

uint32_t TraceSink::InternName(const std::string& name) {
  auto [it, inserted] = name_index_.try_emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
  }
  return it->second;
}

uint64_t TraceSink::SessionTraceId(Session* sess) {
  if (sess == nullptr) {
    return 0;
  }
  if (sess->trace_id_ == 0) {
    sess->trace_id_ = next_sess_id_++;
  }
  return sess->trace_id_;
}

uint64_t TraceSink::MessageTraceId(const Message* msg) {
  if (msg == nullptr) {
    return 0;
  }
  if (msg->trace_id_ == 0) {
    msg->trace_id_ = next_msg_id_++;
  }
  return msg->trace_id_;
}

void TraceSink::BeginSpan(Kernel& kernel, TraceOp op, const Protocol& proto, Session* sess,
                          const Message* msg) {
  Frame f;
  f.rec.kind = Record::Kind::kSpan;
  f.rec.host = InternName(kernel.host_name());
  f.rec.proto = InternName(proto.name());
  f.rec.op = op;
  f.rec.depth = static_cast<uint32_t>(stack_.size());
  f.rec.sess = SessionTraceId(sess);
  f.rec.msg = MessageTraceId(msg);
  f.rec.len = msg != nullptr ? msg->length() : 0;
  f.rec.t0 = kernel.now();
  f.busy0 = kernel.cpu().total_busy();
  stack_.push_back(std::move(f));
}

void TraceSink::EndSpan(Kernel& kernel, Status status) {
  assert(!stack_.empty());
  Frame f = std::move(stack_.back());
  stack_.pop_back();
  f.rec.status = status.code();
  f.rec.t1 = kernel.now();
  f.rec.incl = kernel.cpu().total_busy() - f.busy0;
  f.rec.excl = f.rec.incl - f.child_incl;
  if (!stack_.empty()) {
    stack_.back().child_incl += f.rec.incl;
  }
  Append(std::move(f.rec));
}

void TraceSink::RecordWire(int segment, SimTime tx_start, SimTime tx_end, SimTime arrival,
                           size_t bytes, uint64_t queue_depth, SimTime queue_wait,
                           uint64_t msg_id) {
  Record r;
  r.kind = Record::Kind::kWire;
  r.segment = segment;
  r.t0 = tx_start;
  r.t1 = tx_end;
  r.arrival = arrival;
  r.len = bytes;
  r.qdepth = queue_depth;
  r.qwait = queue_wait;
  r.msg = msg_id;
  Append(std::move(r));
}

void TraceSink::RecordEvent(Kernel& kernel, TraceOp op, std::string_view proto_name,
                            SimTime t, uint64_t call, const Message* msg, Session* sess,
                            uint64_t detail, StatusCode status) {
  Record r;
  r.kind = Record::Kind::kEvent;
  r.host = InternName(kernel.host_name());
  r.proto = InternName(std::string(proto_name));
  r.op = op;
  r.t0 = t;
  r.call = call;
  r.msg = MessageTraceId(msg);
  r.sess = SessionTraceId(sess);
  r.len = detail;
  r.status = status;
  Append(std::move(r));
}

void TraceSink::InheritTraceId(const Message& msg, uint64_t id) {
  if (msg.trace_id_ == 0 && id != 0) {
    msg.trace_id_ = id;
  }
}

void TraceSink::RecordLog(const Kernel& kernel, int level, std::string_view text) {
  Record r;
  r.kind = Record::Kind::kLog;
  r.host = InternName(kernel.host_name());
  r.level = level;
  r.t0 = kernel.now();
  r.text = std::string(text);
  Append(std::move(r));
}

void TraceSink::Append(Record rec) {
  if (records_.size() >= max_records_) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(rec));
}

void TraceSink::Clear() {
  records_.clear();
  dropped_ = 0;
}

std::string TraceSink::ToJsonl() const {
  std::string out;
  out.reserve(records_.size() * 96 + 128);
  out += "{\"k\":\"meta\",\"v\":1,\"records\":" + std::to_string(records_.size()) +
         ",\"dropped\":" + std::to_string(dropped_) + "}\n";
  for (const Record& r : records_) {
    switch (r.kind) {
      case Record::Kind::kSpan:
        out += "{\"k\":\"span\"";
        JsonAppendField(out, "host", names_[r.host]);
        JsonAppendField(out, "proto", names_[r.proto]);
        JsonAppendField(out, "op", TraceOpName(r.op));
        JsonAppendField(out, "sess", r.sess);
        JsonAppendField(out, "msg", r.msg);
        JsonAppendField(out, "len", r.len);
        JsonAppendField(out, "t0", r.t0);
        JsonAppendField(out, "t1", r.t1);
        JsonAppendField(out, "incl", r.incl);
        JsonAppendField(out, "excl", r.excl);
        JsonAppendField(out, "depth", static_cast<uint64_t>(r.depth));
        JsonAppendField(out, "status", StatusCodeName(r.status));
        break;
      case Record::Kind::kWire:
        out += "{\"k\":\"wire\"";
        JsonAppendField(out, "seg", static_cast<int64_t>(r.segment));
        JsonAppendField(out, "t0", r.t0);
        JsonAppendField(out, "t1", r.t1);
        JsonAppendField(out, "arrive", r.arrival);
        JsonAppendField(out, "len", r.len);
        JsonAppendField(out, "qd", r.qdepth);
        JsonAppendField(out, "qw", r.qwait);
        JsonAppendField(out, "msg", r.msg);
        break;
      case Record::Kind::kEvent:
        out += "{\"k\":\"ev\"";
        JsonAppendField(out, "host", names_[r.host]);
        JsonAppendField(out, "proto", names_[r.proto]);
        JsonAppendField(out, "op", TraceOpName(r.op));
        JsonAppendField(out, "t", r.t0);
        JsonAppendField(out, "call", r.call);
        JsonAppendField(out, "msg", r.msg);
        JsonAppendField(out, "sess", r.sess);
        JsonAppendField(out, "detail", r.len);
        JsonAppendField(out, "status", StatusCodeName(r.status));
        break;
      case Record::Kind::kLog:
        out += "{\"k\":\"log\"";
        JsonAppendField(out, "host", names_[r.host]);
        JsonAppendField(out, "t", r.t0);
        JsonAppendField(out, "level", static_cast<int64_t>(r.level));
        JsonAppendField(out, "text", r.text);
        break;
    }
    out += "}\n";
  }
  return out;
}

}  // namespace xk
