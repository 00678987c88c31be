// Host-time spans for the benchmark's traced runs.
//
// Spans are recorded only by the benchmark's own files, around calls into the
// simulator's public functions; nothing under src/ is instrumented. A span is
// (name, start, end, parent, op id): the spans of one measured step share the
// step's op id. Spans stay in memory and are written out once, when the run
// ends. A span's self time is its duration minus the part of its interval
// that its child spans cover.

#ifndef XK_HOSTBENCH_SPANS_H_
#define XK_HOSTBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

using Ns = int64_t;

inline Ns NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  uint32_t name = 0;         // index into SpanRecorder::names()
  uint32_t parent = kNoSpan;  // enclosing span, kNoSpan at the root
  Ns start = 0;
  Ns end = 0;
  uint64_t op = 0;
};

// Self time of every span: its duration minus the union of its children's
// intervals clipped to its own. Works on any span tree, including children
// that overlap each other or stick out of their parent.
std::vector<Ns> SelfTimes(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span under the innermost open one. `name` must outlive the
  // recorder (the benchmark passes string literals).
  uint32_t Begin(const char* name, uint64_t op);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<const char*>& names() const { return names_; }

  struct Totals {
    uint64_t count = 0;
    Ns total = 0;  // summed durations
    Ns self = 0;   // summed self times
  };
  Totals Summarize(const char* name) const;
  // Durations of every span called `name`, in recording order.
  std::vector<Ns> Durations(const char* name) const;

  // One JSON object per line: name, start/end (ns, relative to the first
  // span), parent index, op id, self ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  uint32_t NameIndex(const char* name);
  int FindName(const char* name) const;
  // SelfTimes(spans_), recomputed only after new spans were recorded.
  const std::vector<Ns>& Self() const;

  std::vector<Span> spans_;
  std::vector<const char*> names_;
  std::vector<uint32_t> open_;
  mutable std::vector<Ns> self_;
};

// RAII span; a null recorder (an untraced run) records nothing.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, uint64_t op = 0)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, op) : kNoSpan) {}
  ~Scope() {
    if (rec_ != nullptr) {
      rec_->End(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

}  // namespace hostbench

#endif  // XK_HOSTBENCH_SPANS_H_
