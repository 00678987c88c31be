// Shared helpers for protocol tests: a recording anchor protocol that sits on
// top of any stack, a scoped observer install, and small task-context
// conveniences.

#ifndef XK_TESTS_TEST_UTIL_H_
#define XK_TESTS_TEST_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/protocol.h"
#include "src/trace/pcap.h"
#include "src/trace/trace.h"

namespace xk {

// A top-of-stack protocol for tests: records everything delivered to it and
// optionally runs a handler (e.g., to push a reply back down `lls`).
class TestAnchor : public Protocol {
 public:
  explicit TestAnchor(Kernel& kernel, std::string name = "anchor")
      : Protocol(kernel, std::move(name), {}) {}

  // All payloads delivered to this anchor, in arrival order.
  std::vector<std::vector<uint8_t>> received;
  // Lower sessions handed up by passive creation (OpenDoneUp).
  std::vector<SessionRef> accepted;
  // Optional: invoked on each delivery after recording.
  std::function<void(Message& msg, Session* lls)> on_receive;
  // What this protocol reports for kGetMaxSendSize (VIP asks).
  uint64_t max_send_size = UINT64_MAX;

  Status OpenDoneUp(Protocol& llp, SessionRef lls, const ParticipantSet& parts) override {
    (void)llp;
    (void)parts;
    accepted.push_back(std::move(lls));
    return OkStatus();
  }

 protected:
  Status DoDemux(Session* lls, Message& msg) override {
    received.push_back(msg.Flatten());
    if (on_receive) {
      on_receive(msg, lls);
    }
    return OkStatus();
  }

  Status DoControl(ControlOp op, ControlArgs& args) override {
    if (op == ControlOp::kGetMaxSendSize) {
      args.u64 = max_send_size;
      return OkStatus();
    }
    return ErrStatus(StatusCode::kUnsupported);
  }
};

// Installs thread-default observers for the duration of a scope: an Internet
// built inside it attaches them to every kernel and segment.
struct ScopedObservers {
  ScopedObservers(TraceSink* sink, PacketCapture* capture) {
    TraceSink::set_thread_default(sink);
    PacketCapture::set_thread_default(capture);
  }
  ~ScopedObservers() {
    TraceSink::set_thread_default(nullptr);
    PacketCapture::set_thread_default(nullptr);
  }
};

// Runs `fn` as a task on `kernel` at the current event time.
inline void RunIn(Kernel& kernel, const std::function<void()>& fn) {
  kernel.RunTask(kernel.events().now(), fn);
}

inline std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) { return v; }

inline std::vector<uint8_t> PatternBytes(size_t n, uint8_t seed = 0) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 131 + (i >> 7));
  }
  return v;
}

}  // namespace xk

#endif  // XK_TESTS_TEST_UTIL_H_
