#include "src/cluster/client.h"

#include <algorithm>

#include "src/app/oracle.h"
#include "src/trace/trace.h"

namespace xk {

ClusterClient::ClusterClient(Kernel& kernel, Protocol* rpc, std::string name)
    : Protocol(kernel, std::move(name), {rpc}), rpc_(rpc) {}

void ClusterClient::Call(IpAddr service, uint16_t command, uint64_t id, Message args,
                         RpcDone done) {
  kernel().Charge(kAppCost);
  SessionRef sess;
  auto it = session_cache_.find({service, command});
  if (it != session_cache_.end()) {
    sess = it->second;
  } else {
    ParticipantSet parts;
    parts.peer.host = service;
    parts.peer.command = command;
    Result<SessionRef> r = rpc_->Open(*this, parts);
    if (!r.ok()) {
      ++calls_failed_;
      done(r.status());
      return;
    }
    sess = *r;
    session_cache_[{service, command}] = sess;
  }
  const std::tuple<Session*, uint64_t> key{sess.get(), id};
  PendingCall& entry = *pending_.TryEmplace(key).first;
  entry.done = std::move(done);
  entry.issued_at = kernel().now();
  if (hedge_base_delay_ > 0) {
    entry.args = args;  // keep a copy: Push consumes/extends the original
  }
  Status pushed = sess->Push(args);
  // Re-find after the push: a synchronous error upcall may already have
  // settled this id, and any erase may have moved the table's buckets.
  PendingCall* pc = pending_.Find(key);
  if (pc == nullptr) {
    return;
  }
  if (!pushed.ok()) {
    // Synchronous failure (every replica down, or all capped): nothing went
    // out, so the id is still ours to complete directly.
    RpcDone cb = std::move(pc->done);
    pending_.Erase(key);
    ++calls_failed_;
    cb(pushed);
    return;
  }
  if (hedge_base_delay_ > 0) {
    ControlArgs cargs;
    if (rpc_->Control(ControlOp::kGetLastPick, cargs).ok()) {
      pc->primary_pick = static_cast<int>(static_cast<int64_t>(cargs.u64));
    }
    const SimTime delay =
        rtt_.count() >= kHedgeMinSamples ? rtt_.P99() : hedge_base_delay_;
    Session* sp = sess.get();
    pc->hedge_timer = kernel().SetTimer(delay, [this, sp, id] { FireHedge(sp, id); });
  }
}

void ClusterClient::FireHedge(Session* sess, uint64_t id) {
  const std::tuple<Session*, uint64_t> key{sess, id};
  PendingCall* found = pending_.Find(key);
  if (found == nullptr) {
    return;  // settled while the timer was in flight
  }
  PendingCall& pc = *found;
  pc.hedged = true;
  ++pc.attempts;
  ++hedges_;
  if (pc.primary_pick >= 0) {
    // One-shot: only this hedge push avoids the primary's replica.
    ControlArgs cargs;
    cargs.u64 = static_cast<uint64_t>(static_cast<int64_t>(pc.primary_pick));
    (void)rpc_->Control(ControlOp::kSetAvoidReplica, cargs);
  }
  if (TraceSink* ts = kernel().trace_sink()) {
    ts->RecordEvent(kernel(), TraceOp::kHedge, name(), kernel().now(), id, &pc.args, sess,
                    static_cast<uint64_t>(pc.primary_pick >= 0 ? pc.primary_pick : 0));
  }
  if (hedge_notify_) {
    hedge_notify_(id);
  }
  Message copy = pc.args;  // carries the deadline metadata too
  Status pushed = sess->Push(copy);
  if (!pushed.ok()) {
    // No second replica to hedge onto (capped, avoided, or down): the
    // primary attempt stands alone again. Re-found: the push may have moved
    // the table's buckets.
    if (PendingCall* again = pending_.Find(key)) {
      --again->attempts;
    }
  }
}

void ClusterClient::Evict(IpAddr service, uint16_t command) {
  auto it = session_cache_.find({service, command});
  if (it == session_cache_.end()) {
    return;
  }
  ControlArgs args;
  (void)it->second->Control(ControlOp::kFlushSessions, args);
  // Keep the outstanding_ entry: in-flight replies still demux through the
  // session object until they drain; only the cache forgets it.
  session_cache_.erase(it);
}

Status ClusterClient::DoDemux(Session* lls, Message& msg) {
  kernel().Charge(kAppCost);
  const uint64_t id = AmoOracle::ExtractId(msg);
  PendingCall pc;
  if (!pending_.Take({lls, id}, &pc)) {
    // The reply beat us here after its call already failed, or the other
    // hedge attempt won. Count it; don't misdeliver.
    ++late_replies_;
    return OkStatus();
  }
  if (hedge_base_delay_ > 0 && !pc.hedged) {
    // Primary settled before the hedge delay elapsed: the common case.
    kernel().CancelTimer(pc.hedge_timer);
    ++hedge_cancels_;
    if (TraceSink* ts = kernel().trace_sink()) {
      ts->RecordEvent(kernel(), TraceOp::kHedgeCancel, name(), kernel().now(), id, &msg,
                      lls, 0);
    }
  }
  rtt_.Record(kernel().now() - pc.issued_at);
  ++calls_completed_;
  pc.done(msg);
  return OkStatus();
}

void ClusterClient::SessionError(Session& lls, Status error, const Message* request) {
  // The failing request's first 8 bytes are the call id, so out-of-order
  // rejects complete the right call. Without a request fall back to the
  // session's lowest outstanding id -- CHANNEL surfaces giveups in issue
  // order.
  uint64_t id = request != nullptr ? AmoOracle::ExtractId(*request) : 0;
  if (request == nullptr || !pending_.Contains({&lls, id})) {
    bool any = false;
    uint64_t lowest = UINT64_MAX;
    pending_.ForEach([&](const std::tuple<Session*, uint64_t>& key, const PendingCall&) {
      if (std::get<0>(key) == &lls) {
        any = true;
        lowest = std::min(lowest, std::get<1>(key));
      }
    });
    if (!any) {
      return;  // nothing outstanding on this session
    }
    if (request != nullptr) {
      // This attempt's call already settled (its hedge twin won, or the
      // reply raced the error). Nothing left to complete.
      ++late_replies_;
      return;
    }
    id = lowest;
  }
  const std::tuple<Session*, uint64_t> key{&lls, id};
  PendingCall& pc = *pending_.Find(key);
  if (pc.attempts > 1) {
    // One attempt died; its twin is still in flight and may yet win.
    --pc.attempts;
    return;
  }
  if (hedge_base_delay_ > 0 && !pc.hedged) {
    kernel().CancelTimer(pc.hedge_timer);
  }
  RpcDone done = std::move(pc.done);
  pending_.Erase(key);
  ++calls_failed_;
  done(error);
}

Status ClusterClient::DoControl(ControlOp op, ControlArgs& args) {
  if (op == ControlOp::kGetMaxSendSize) {
    args.u64 = UINT64_MAX;
    return OkStatus();
  }
  return ErrStatus(StatusCode::kUnsupported);
}

}  // namespace xk
