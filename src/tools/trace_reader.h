// Reader + analyzer for the trace JSONL emitted by TraceSink (src/trace).
//
// Header-only and std-only so both the xktrace CLI and the tests can consume
// traces without linking anything beyond the standard library. Each line is
// one JSON object, read with the shared reader in json_reader.h.

#ifndef XK_SRC_TOOLS_TRACE_READER_H_
#define XK_SRC_TOOLS_TRACE_READER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/tools/json_reader.h"

namespace xk::tracetool {

// One layer-crossing span: a Push/Pop/Demux/Open/Intr on `proto` at `host`.
struct SpanRec {
  std::string host;
  std::string proto;
  std::string op;
  std::string status;
  uint64_t sess = 0;   // session trace id (0 = none)
  uint64_t msg = 0;    // message trace id (0 = none)
  uint64_t len = 0;    // message length at entry
  int64_t t0 = 0;      // sim ns at entry
  int64_t t1 = 0;      // sim ns at exit
  int64_t incl = 0;    // charged cost inside the span, children included
  int64_t excl = 0;    // charged cost minus child spans
  uint64_t depth = 0;  // nesting depth at entry (0 = outermost)
};

// One frame transmission on a segment.
struct WireRec {
  int64_t seg = 0;
  int64_t t0 = 0;      // tx start
  int64_t t1 = 0;      // tx end (bus released)
  int64_t arrive = 0;  // delivery time at receivers
  uint64_t len = 0;    // frame bytes
  uint64_t qdepth = 0; // frames waiting behind the bus at tx start
  int64_t qwait = 0;   // ns this frame waited for the bus
  uint64_t msg = 0;    // trace id of the carried message (0 = untracked)
};

// One point event: a cluster-tier decision (issue/done/exec, retransmit,
// reroute, replica down/readmit, eviction, router forward) bound to an
// oracle call id and/or message trace id.
struct EventRec {
  std::string host;
  std::string proto;
  std::string op;
  std::string status;
  int64_t t = 0;
  uint64_t call = 0;    // oracle call id (0 = not call-bound)
  uint64_t msg = 0;     // message trace id (0 = none)
  uint64_t sess = 0;    // session trace id (0 = none)
  uint64_t detail = 0;  // op-specific: retry #, replica idx, ttl, idle ns...
};

// One structured log record (from Kernel::Tracef).
struct LogRec {
  std::string host;
  std::string text;
  int64_t t = 0;
  int64_t level = 0;
};

struct TraceFile {
  std::vector<SpanRec> spans;
  std::vector<WireRec> wires;
  std::vector<LogRec> logs;
  std::vector<EventRec> events;
  uint64_t dropped = 0;  // records the sink discarded at capacity
  std::string error;     // non-empty: the file or a line could not be read
};

namespace detail {

// Reads one record's fields. A missing field reads as empty or zero; one of
// the wrong type or range reads the same but names itself in `bad`.
struct Fields {
  const JsonValue& obj;
  const char* bad = nullptr;

  template <typename T>
  T Get(const char* key) {
    T out{};
    const JsonValue* v = obj.Find(key);
    if (v != nullptr && !v->Get(&out) && bad == nullptr) {
      bad = key;
    }
    return out;
  }
};

}  // namespace detail

// Parses a whole JSONL trace. Blank lines and unknown record kinds are
// skipped so newer writers stay readable. A line that is not a JSON object,
// or a field of the wrong type or range, ends the parse with `error` naming
// the line.
inline TraceFile Parse(std::string_view text) {
  TraceFile tf;
  JsonValue obj;  // reused, so each line's fields land in kept capacity
  for (size_t pos = 0, line_no = 1; pos < text.size(); ++line_no) {
    const size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) {
      continue;
    }
    obj.obj.clear();
    JsonParser parser(line);
    if (!parser.Parse(obj) || obj.kind != JsonValue::Kind::kObject) {
      tf.error = "line " + std::to_string(line_no) + ": " +
                 (parser.error().empty() ? "not a JSON object" : parser.error());
      return tf;
    }
    detail::Fields o{obj};
    const std::string kind = o.Get<std::string>("k");
    if (kind == "span") {
      SpanRec r;
      r.host = o.Get<std::string>("host");
      r.proto = o.Get<std::string>("proto");
      r.op = o.Get<std::string>("op");
      r.status = o.Get<std::string>("status");
      r.sess = o.Get<uint64_t>("sess");
      r.msg = o.Get<uint64_t>("msg");
      r.len = o.Get<uint64_t>("len");
      r.t0 = o.Get<int64_t>("t0");
      r.t1 = o.Get<int64_t>("t1");
      r.incl = o.Get<int64_t>("incl");
      r.excl = o.Get<int64_t>("excl");
      r.depth = o.Get<uint64_t>("depth");
      tf.spans.push_back(std::move(r));
    } else if (kind == "wire") {
      WireRec r;
      r.seg = o.Get<int64_t>("seg");
      r.t0 = o.Get<int64_t>("t0");
      r.t1 = o.Get<int64_t>("t1");
      r.arrive = o.Get<int64_t>("arrive");
      r.len = o.Get<uint64_t>("len");
      r.qdepth = o.Get<uint64_t>("qd");
      r.qwait = o.Get<int64_t>("qw");
      r.msg = o.Get<uint64_t>("msg");
      tf.wires.push_back(r);
    } else if (kind == "ev") {
      EventRec r;
      r.host = o.Get<std::string>("host");
      r.proto = o.Get<std::string>("proto");
      r.op = o.Get<std::string>("op");
      r.status = o.Get<std::string>("status");
      r.t = o.Get<int64_t>("t");
      r.call = o.Get<uint64_t>("call");
      r.msg = o.Get<uint64_t>("msg");
      r.sess = o.Get<uint64_t>("sess");
      r.detail = o.Get<uint64_t>("detail");
      tf.events.push_back(std::move(r));
    } else if (kind == "log") {
      LogRec r;
      r.host = o.Get<std::string>("host");
      r.text = o.Get<std::string>("text");
      r.t = o.Get<int64_t>("t");
      r.level = o.Get<int64_t>("level");
      tf.logs.push_back(std::move(r));
    } else if (kind == "meta") {
      tf.dropped += o.Get<uint64_t>("dropped");
    }
    if (o.bad != nullptr) {
      tf.error = "line " + std::to_string(line_no) + ": field '" + o.bad +
                 "' has the wrong type or range";
      return tf;
    }
  }
  return tf;
}

// Reads and parses a trace file. `error` says why it could not: "cannot
// read PATH", or PATH and the malformed line.
inline TraceFile Load(const std::string& path) {
  std::string text;
  TraceFile tf;
  if (!ReadFile(path, &text)) {
    tf.error = "cannot read " + path;
  } else if (tf = Parse(text); !tf.error.empty()) {
    tf.error = path + ": " + tf.error;
  }
  return tf;
}

// Aggregated exclusive cost of one (host, protocol, op) layer crossing.
struct LayerStat {
  std::string host;
  std::string proto;
  std::string op;
  uint64_t count = 0;
  int64_t excl_total = 0;  // ns
};

// Aggregated wire activity on one Ethernet segment.
struct SegmentStat {
  int64_t seg = 0;
  uint64_t frames = 0;
  uint64_t bytes = 0;
  int64_t busy = 0;           // ns the bus was transmitting
  uint64_t queued = 0;        // frames that waited (qwait > 0)
  uint64_t peak_depth = 0;    // max queue depth observed at any tx start
  uint64_t depth_sum = 0;     // sum of per-frame queue depths (for the mean)
  int64_t wait_total = 0;     // ns, sum of per-frame bus waits
  int64_t wait_max = 0;       // ns, worst single-frame bus wait
};

// Per-router forwarding activity, aggregated from IP's point events.
struct RouterStat {
  std::string host;
  uint64_t forwards = 0;
  uint64_t ttl_drops = 0;
  uint64_t no_route_drops = 0;
};

// Per-layer breakdown plus a per-call latency estimate built from the trace.
//
// The estimate is timestamp-based: the elapsed simulated time from the first
// observed record to the last, divided by the call count. For a serial
// latency workload this is exactly what the benchmark reports, because the
// clock advances only through the charged costs and wire delays the trace
// records. The cpu/wire/propagation totals decompose where that time went --
// their sum can exceed the elapsed time when CPU work overlaps an in-flight
// frame (e.g. CHANNEL arming its retransmit timer while the request is on
// the wire).
//
// Calls are inferred as the minimum push-span count over (host, protocol)
// pairs -- every layer pushes at least once per call, and retransmitting
// layers push more, so the minimum is the call count.
struct Breakdown {
  std::vector<LayerStat> layers;     // sorted by (host, proto, op)
  std::vector<SegmentStat> segments; // sorted by segment id
  std::vector<RouterStat> routers;   // sorted by host; hosts that forwarded or dropped
  uint64_t calls = 1;
  int64_t cpu_total = 0;   // ns, sum of span exclusive costs
  int64_t wire_total = 0;  // ns, sum of frame transmission times
  int64_t prop_total = 0;  // ns, sum of propagation delays
  int64_t t_min = 0;       // ns, earliest record timestamp
  int64_t t_max = 0;       // ns, latest record timestamp
  int64_t elapsed() const { return t_max - t_min; }

  double PerCallUsec() const {
    return static_cast<double>(elapsed()) /
           (1000.0 * static_cast<double>(calls == 0 ? 1 : calls));
  }
};

inline Breakdown Analyze(const TraceFile& tf, uint64_t forced_calls = 0) {
  Breakdown b;
  std::map<std::tuple<std::string, std::string, std::string>, LayerStat> layers;
  std::map<std::pair<std::string, std::string>, uint64_t> pushes;
  bool have_t = false;
  auto see = [&](int64_t t0, int64_t t1) {
    if (!have_t) {
      b.t_min = t0;
      b.t_max = t1;
      have_t = true;
      return;
    }
    b.t_min = std::min(b.t_min, t0);
    b.t_max = std::max(b.t_max, t1);
  };
  for (const SpanRec& s : tf.spans) {
    LayerStat& st = layers[{s.host, s.proto, s.op}];
    if (st.count == 0) {
      st.host = s.host;
      st.proto = s.proto;
      st.op = s.op;
    }
    ++st.count;
    st.excl_total += s.excl;
    b.cpu_total += s.excl;
    see(s.t0, s.t1);
    if (s.op == "push") {
      ++pushes[{s.host, s.proto}];
    }
  }
  std::map<int64_t, SegmentStat> segs;
  for (const WireRec& w : tf.wires) {
    b.wire_total += w.t1 - w.t0;
    b.prop_total += w.arrive - w.t1;
    see(w.t0, w.arrive);
    SegmentStat& sg = segs[w.seg];
    sg.seg = w.seg;
    ++sg.frames;
    sg.bytes += w.len;
    sg.busy += w.t1 - w.t0;
    if (w.qwait > 0) {
      ++sg.queued;
    }
    sg.depth_sum += w.qdepth;
    sg.peak_depth = std::max(sg.peak_depth, w.qdepth);
    sg.wait_total += w.qwait;
    sg.wait_max = std::max(sg.wait_max, w.qwait);
  }
  b.segments.reserve(segs.size());
  for (auto& [id, sg] : segs) {
    b.segments.push_back(sg);
  }
  std::map<std::string, RouterStat> routers;
  for (const EventRec& e : tf.events) {
    if (e.op != "forward" && e.op != "ttl_drop" && e.op != "no_route") {
      continue;
    }
    RouterStat& rt = routers[e.host];
    rt.host = e.host;
    if (e.op == "forward") {
      ++rt.forwards;
    } else if (e.op == "ttl_drop") {
      ++rt.ttl_drops;
    } else {
      ++rt.no_route_drops;
    }
  }
  b.routers.reserve(routers.size());
  for (auto& [host, rt] : routers) {
    b.routers.push_back(std::move(rt));
  }
  b.layers.reserve(layers.size());
  for (auto& [key, st] : layers) {
    b.layers.push_back(std::move(st));
  }
  if (forced_calls > 0) {
    b.calls = forced_calls;
  } else {
    uint64_t min_pushes = 0;
    for (const auto& [key, n] : pushes) {
      if (n > 0 && (min_pushes == 0 || n < min_pushes)) {
        min_pushes = n;
      }
    }
    b.calls = min_pushes > 0 ? min_pushes : 1;
  }
  return b;
}

}  // namespace xk::tracetool

#endif  // XK_SRC_TOOLS_TRACE_READER_H_
