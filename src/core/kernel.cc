#include "src/core/kernel.h"

#include <cstdio>

#include "src/trace/trace.h"

namespace xk {

Kernel::Kernel(std::string host_name, EventQueue& events, HostEnv env, IpAddr ip, EthAddr eth)
    : host_name_(std::move(host_name)),
      events_(events),
      env_(env),
      costs_(CostModel::For(env)),
      ip_(ip),
      eth_(eth),
      // Per-queue, not process-global: a simulation's boot ids (which appear
      // in wire bytes) depend only on its own kernel allocation order, so the
      // same configuration always produces the same frames regardless of what
      // other simulations run in the process or in sibling threads.
      boot_id_(events.AllocateBootId()) {}

Kernel::~Kernel() {
  // Tear the graph down top-first so high-level protocols can still reach the
  // substrates they hold capabilities for.
  while (!protocols_.empty()) {
    protocols_.pop_back();
  }
}

void Kernel::TrackPending(EventHandle handle) {
  // Host bookkeeping only (never charged): keep the registry from growing
  // without bound by squeezing out fired/cancelled handles once they dominate.
  if (pending_handles_.size() >= 64 && pending_handles_.size() >= 2 * tasks_pending_) {
    size_t kept = 0;
    for (EventHandle& h : pending_handles_) {
      if (h.pending()) {
        pending_handles_[kept++] = h;
      }
    }
    pending_handles_.resize(kept);
  }
  pending_handles_.push_back(handle);
}

void Kernel::Crash() {
  if (trace_ != nullptr) {
    trace_->RecordEvent(*this, TraceOp::kCrash, "kernel", now(), 0, nullptr, nullptr,
                        boot_id_, StatusCode::kUnreachable);
  }
  // Order matters: pending task/timer closures capture raw pointers into the
  // protocol graph, so they must die before the graph does.
  for (EventHandle& h : pending_handles_) {
    h.Cancel();
  }
  pending_handles_.clear();
  tasks_pending_ = 0;
  while (!protocols_.empty()) {
    protocols_.pop_back();
  }
  by_name_.clear();
  up_ = false;
}

void Kernel::Restart() {
  // A plain increment rather than EventQueue::AllocateBootId(): a host's
  // boot ids depend only on its own history, not on how many kernels were
  // built on the queue after it.
  ++boot_id_;
  up_ = true;
  if (trace_ != nullptr) {
    trace_->RecordEvent(*this, TraceOp::kRestart, "kernel", now(), 0, nullptr, nullptr,
                        boot_id_);
  }
}

void Kernel::CancelTimer(EventHandle& handle) {
  if (handle.Cancel()) {
    cpu_.Charge(costs_.timer_cancel);
    if (tasks_pending_ > 0) {
      --tasks_pending_;
    }
  }
}

Protocol& Kernel::Add(std::unique_ptr<Protocol> proto) {
  Protocol& ref = *proto;
  by_name_[ref.name()] = &ref;
  protocols_.push_back(std::move(proto));
  return ref;
}

Protocol* Kernel::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

void Kernel::Tracef(int level, const char* fmt, ...) {
  if (trace_ == nullptr) {
    return;
  }
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  trace_->RecordLog(*this, level, buf);
}

}  // namespace xk
