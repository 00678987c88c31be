// Application anchor protocols: the top of every experimental stack.
//
// In the x-kernel the test programs themselves are protocols ("all the
// experiments are kernel-to-kernel"). Three anchors cover every
// configuration in the paper:
//
//  * RpcClient / RpcServer -- call/serve through any protocol that addresses
//    procedures with (host, command): M_RPC, SELECT, SELECT_FWD, or (with a
//    participant-set override) SUN_SELECT.
//  * EchoAnchor -- a raw request/echo test protocol used to measure partial
//    stacks (Table III's VIP, FRAGMENT-VIP, and CHANNEL-FRAGMENT-VIP rows),
//    where no selection layer exists and the anchor does its own pairing.

#ifndef XK_SRC_APP_ANCHOR_H_
#define XK_SRC_APP_ANCHOR_H_

#include <deque>
#include <functional>
#include <map>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/stat/histogram.h"

namespace xk {

using RpcDone = std::function<void(Result<Message>)>;

// ---------------------------------------------------------------------------
// RpcClient
// ---------------------------------------------------------------------------

class RpcClient : public Protocol {
 public:
  // `rpc` is the protocol procedures are addressed through.
  RpcClient(Kernel& kernel, Protocol* rpc, std::string name = "rpcclient");

  // Invokes `command` at `server` with `args`; `done` runs with the reply (or
  // an error). Must be called from within a task. Completions pair FIFO per
  // (server, command) session.
  void Call(IpAddr server, uint16_t command, Message args, RpcDone done);

  // Generalized form for protocols with richer addresses (Sun RPC).
  void CallParts(const ParticipantSet& parts, Message args, RpcDone done);

  // CPU cost charged per call for argument marshalling (part of the test
  // program, present in the paper's numbers too).
  void set_app_cost(SimTime t) { app_cost_ = t; }

  uint64_t calls_completed() const { return calls_completed_; }
  uint64_t calls_failed() const { return calls_failed_; }

  void SessionError(Session& lls, Status error, const Message* request) override;

 protected:
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  Protocol* rpc_;
  SimTime app_cost_ = Usec(45);
  std::map<std::pair<IpAddr, uint16_t>, SessionRef> session_cache_;
  std::map<Session*, std::deque<RpcDone>> outstanding_;
  uint64_t calls_completed_ = 0;
  uint64_t calls_failed_ = 0;
};

// ---------------------------------------------------------------------------
// RpcServer
// ---------------------------------------------------------------------------

class RpcServer : public Protocol {
 public:
  using Handler = std::function<Message(uint16_t command, Message& request)>;

  RpcServer(Kernel& kernel, Protocol* rpc, std::string name = "rpcserver");

  // Registers `handler` for `command` (kAny = every command) and enables the
  // underlying protocol.
  static constexpr uint16_t kAny = 0xFFFF;
  Status Export(uint16_t command, Handler handler);

  // Registration for Sun-style services.
  Status ExportParts(const ParticipantSet& parts, Handler handler);

  // Replies are delayed by this much simulated service time (lets tests drive
  // the slow-server / explicit-ack paths).
  void set_service_delay(SimTime t) { service_delay_ = t; }
  void set_app_cost(SimTime t) { app_cost_ = t; }

  // Admission control (also via ControlOp::kSetAdmissionLimit): bounds the
  // server's run queue. `max_inflight` caps delayed-service requests whose
  // reply timer is still pending; `max_backlog` caps how far this request's
  // task clock may be running behind its arrival event (queueing delay plus
  // the receive path's own processing) before new work is fast-rejected with
  // a cheap BUSY reply. 0 = unbounded (the default).
  void set_admission_limit(uint32_t max_inflight, SimTime max_backlog) {
    max_inflight_ = max_inflight;
    max_backlog_ = max_backlog;
  }

  uint64_t requests_served() const { return requests_served_; }
  uint64_t busy_rejects() const { return busy_rejects_; }
  uint64_t deadline_sheds() const { return deadline_sheds_; }

  void ExportCounters(const CounterEmit& emit) const override {
    Protocol::ExportCounters(emit);
    emit("requests_served", requests_served_);
    emit("busy_rejects", busy_rejects_);
    emit("deadline_sheds", deadline_sheds_);
  }

  // Per-request service time: from the request reaching this server protocol
  // to the reply being handed back down the stack (includes app cost, any
  // configured service delay, the handler, and the reply push).
  const Histogram& service_histogram() const { return service_time_; }

 protected:
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  Handler HandlerFor(uint16_t command);

  Protocol* rpc_;
  std::map<uint16_t, Handler> handlers_;
  SimTime service_delay_ = 0;
  SimTime app_cost_ = Usec(45);
  uint64_t requests_served_ = 0;
  uint32_t max_inflight_ = 0;   // delayed-service requests in flight (0 = off)
  SimTime max_backlog_ = 0;     // run-queue delay bound (0 = off)
  uint64_t inflight_ = 0;
  uint64_t busy_rejects_ = 0;
  uint64_t deadline_sheds_ = 0;
  Histogram service_time_;
};

// ---------------------------------------------------------------------------
// EchoAnchor
// ---------------------------------------------------------------------------

// Raw test protocol: in server role echoes every delivered message back down
// the session it arrived on; in client role sends messages down a session and
// pairs responses FIFO.
class EchoAnchor : public Protocol {
 public:
  EchoAnchor(Kernel& kernel, bool server_role, std::string name = "echo");

  // Client role: sends `msg` through `sess`; `done` runs when the echo (or,
  // over CHANNEL, the reply) comes back.
  void Send(const SessionRef& sess, Message msg, RpcDone done);

  void set_app_cost(SimTime t) { app_cost_ = t; }
  // Server role: echo only the first `n` bytes (null-reply throughput tests).
  void set_echo_limit(size_t n) { echo_limit_ = n; }

  void SessionError(Session& lls, Status error, const Message* request) override;

 protected:
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  bool server_role_;
  SimTime app_cost_ = Usec(45);
  size_t echo_limit_ = SIZE_MAX;
  std::map<Session*, std::deque<RpcDone>> outstanding_;
};

}  // namespace xk

#endif  // XK_SRC_APP_ANCHOR_H_
