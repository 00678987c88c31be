#include "src/app/workload.h"

#include <cassert>
#include <memory>
#include <utility>

#include "src/app/oracle.h"

namespace xk {

ThroughputResult RpcWorkload::MeasureThroughput(Internet& net, Kernel& client_kernel,
                                                Kernel& server_kernel, const CallFn& call,
                                                size_t bytes, int iters) {
  ThroughputResult result;
  result.bytes_per_call = bytes;
  SimTime start = 0;
  SimTime done_at = 0;
  int remaining = iters;
  const SimTime client_cpu0 = client_kernel.cpu().total_busy();
  const SimTime server_cpu0 = server_kernel.cpu().total_busy();

  std::function<void()> issue = [&]() {
    const SimTime t0 = client_kernel.now();
    call(Message(bytes), [&, t0](Result<Message> r) {
      result.rtt.Record(client_kernel.now() - t0);
      if (r.ok()) {
        ++result.completed;
      } else {
        ++result.failed;
      }
      if (--remaining > 0) {
        issue();  // still inside the completion task; the clock has advanced
      } else {
        done_at = client_kernel.now();
      }
    });
  };

  client_kernel.ScheduleTask(0, [&]() {
    start = client_kernel.now();
    issue();
  });
  net.RunAll();
  result.elapsed = done_at - start;
  if (result.elapsed > 0 && result.completed > 0) {
    const double total_bytes = static_cast<double>(bytes) * result.completed;
    result.kbytes_per_sec = total_bytes / 1024.0 / (ToMsec(result.elapsed) / 1000.0);
    result.client_cpu = (client_kernel.cpu().total_busy() - client_cpu0) / result.completed;
    result.server_cpu = (server_kernel.cpu().total_busy() - server_cpu0) / result.completed;
  }
  return result;
}

LatencyResult RpcWorkload::MeasureLatency(Internet& net, Kernel& client_kernel,
                                          const CallFn& call, int iters) {
  // A null call is the 0-byte case of the throughput loop (Message(0) is
  // Message()). No server CPU is reported, so the client kernel stands in.
  ThroughputResult t = MeasureThroughput(net, client_kernel, client_kernel, call, 0, iters);
  LatencyResult result;
  result.completed = t.completed;
  result.failed = t.failed;
  result.rtt = std::move(t.rtt);
  if (iters > 0 && t.elapsed > 0) {
    result.per_call = t.elapsed / iters;
  }
  return result;
}

ChaosResult RpcWorkload::RunChaos(Internet& net, Kernel& client_kernel, const CallFn& call,
                                  AmoOracle& oracle, const ChaosSpec& spec) {
  ChaosResult result;
  SimTime start = 0;
  SimTime first_success_after_crash = 0;
  int remaining = spec.calls;

  // Sequential issue chain, like MeasureThroughput's, but with calls spaced
  // by `gap` so the workload spans the fault windows instead of completing
  // before them.
  std::function<void()> issue = [&]() {
    const uint64_t id = oracle.NextCallId();
    const SimTime t0 = client_kernel.now();
    ++result.issued;
    oracle.RecordIssued(id, t0);
    call(AmoOracle::MakeRequest(id, spec.payload_bytes), [&, id, t0](Result<Message> r) {
      const SimTime now = client_kernel.now();
      result.rtt.Record(now - t0);
      oracle.RecordOutcome(id, r, now);
      if (r.ok()) {
        ++result.completed;
        if (spec.crash_at > 0 && now >= spec.crash_at && first_success_after_crash == 0) {
          first_success_after_crash = now;
        }
      } else {
        ++result.failed;
        result.last_failure_at = now;
      }
      if (--remaining > 0) {
        if (spec.gap > 0) {
          client_kernel.ScheduleTask(spec.gap, [&]() { issue(); });
        } else {
          issue();
        }
      } else {
        result.elapsed = now - start;
      }
    });
  };

  client_kernel.ScheduleTask(0, [&]() {
    start = client_kernel.now();
    issue();
  });
  net.RunAll();
  if (first_success_after_crash > 0) {
    result.recovery_latency = first_success_after_crash - spec.crash_at;
  }
  return result;
}

ManyPairsResult RpcWorkload::MeasureManyPairs(Internet& net,
                                              const std::vector<Kernel*>& clients,
                                              const std::vector<CallFn>& calls, size_t bytes,
                                              int iters) {
  assert(clients.size() == calls.size());
  ManyPairsResult result;
  const size_t pairs = clients.size();

  struct PairState {
    int remaining = 0;
    int completed = 0;
    int failed = 0;
    SimTime start = 0;
    SimTime done_at = 0;
    Histogram rtt;
    std::function<void()> issue;
  };
  std::vector<std::unique_ptr<PairState>> states;
  states.reserve(pairs);

  for (size_t p = 0; p < pairs; ++p) {
    states.push_back(std::make_unique<PairState>());
    PairState* st = states.back().get();
    st->remaining = iters;
    Kernel* client = clients[p];
    const CallFn* call = &calls[p];
    st->issue = [st, client, call, bytes]() {
      const SimTime t0 = client->now();
      (*call)(Message(bytes), [st, client, t0](Result<Message> r) {
        st->rtt.Record(client->now() - t0);
        if (r.ok()) {
          ++st->completed;
        } else {
          ++st->failed;
        }
        if (--st->remaining > 0) {
          st->issue();
        } else {
          st->done_at = client->now();
        }
      });
    };
    client->ScheduleTask(0, [st, client]() {
      st->start = client->now();
      st->issue();
    });
  }

  net.RunAll();

  SimTime first_start = kSimTimeNever;
  SimTime last_done = 0;
  for (const auto& st : states) {
    if (st->start < first_start) {
      first_start = st->start;
    }
    if (st->done_at > last_done) {
      last_done = st->done_at;
    }
    result.completed += st->completed;
    result.failed += st->failed;
    result.sum_done_at += st->done_at;
    result.rtt.Merge(st->rtt);  // after the run: pairs merge in pair order
  }
  if (!states.empty() && last_done > first_start) {
    result.elapsed = last_done - first_start;
  }
  if (result.elapsed > 0 && result.completed > 0) {
    const double total_bytes = static_cast<double>(bytes) * result.completed;
    result.agg_kbytes_per_sec = total_bytes / 1024.0 / (ToMsec(result.elapsed) / 1000.0);
  }
  return result;
}

}  // namespace xk
