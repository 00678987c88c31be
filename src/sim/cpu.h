// Per-host CPU model.
//
// Each simulated host (a Sun 3/75 in the paper's testbed) has one CPU. All
// protocol processing on a host -- a shepherd process carrying a message up
// or down the stack -- executes as a *task* on that CPU. A task begins at
// max(event time, time the CPU frees up), accumulates Charge()d costs, and
// leaves the CPU busy until it ends. This serializes concurrent shepherd
// processing on a uniprocessor exactly the way contention did on the real
// machines, while letting the two hosts and the wire pipeline against each
// other (which is what makes throughput, not latency, saturate the link).

#ifndef XK_SRC_SIM_CPU_H_
#define XK_SRC_SIM_CPU_H_

#include <cassert>

#include "src/core/types.h"

namespace xk {

class Cpu {
 public:
  Cpu() = default;

  // Begins a task dispatched at `at`. Returns the time the task actually
  // starts executing (>= at if the CPU was busy).
  SimTime BeginTask(SimTime at) {
    assert(!in_task_);
    in_task_ = true;
    now_ = at > busy_until_ ? at : busy_until_;
    return now_;
  }

  // Accounts `cost` of CPU work to the current task.
  void Charge(SimTime cost) {
    assert(in_task_);
    assert(cost >= 0);
    now_ += cost;
    total_busy_ += cost;
  }

  // Ends the current task; the CPU is busy until the returned time.
  SimTime EndTask() {
    assert(in_task_);
    in_task_ = false;
    busy_until_ = now_;
    return busy_until_;
  }

  // The current task's local clock (valid only inside a task).
  SimTime now() const {
    assert(in_task_);
    return now_;
  }

  bool in_task() const { return in_task_; }
  SimTime busy_until() const { return busy_until_; }

  // Total CPU time charged since construction (the paper's "uses less CPU
  // time" comparisons read this).
  SimTime total_busy() const { return total_busy_; }

 private:
  SimTime now_ = 0;
  SimTime busy_until_ = 0;
  SimTime total_busy_ = 0;
  bool in_task_ = false;
};

}  // namespace xk

#endif  // XK_SRC_SIM_CPU_H_
