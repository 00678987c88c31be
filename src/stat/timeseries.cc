#include "src/stat/timeseries.h"

#include <algorithm>
#include <cstdio>

#include "src/core/kernel.h"
#include "src/core/protocol.h"
#include "src/trace/json_util.h"

namespace xk {

namespace {
thread_local StatSampler* g_thread_default = nullptr;
}  // namespace

StatSampler* StatSampler::thread_default() { return g_thread_default; }

void StatSampler::set_thread_default(StatSampler* sampler) { g_thread_default = sampler; }

// --- HostSeries ----------------------------------------------------------------

void HostSeries::FlushTo(SimTime t) {
  if (kernel_ == nullptr) {
    return;
  }
  while (next_ <= t) {
    EmitSample(next_);
    next_ += period_;
  }
}

void HostSeries::EmitSample(SimTime at) {
  StatLine line;
  line.t = at;
  std::string& out = line.text;
  out += "{\"k\":\"host\"";
  JsonAppendField(out, "net", static_cast<int64_t>(net_));
  JsonAppendField(out, "t", at);
  JsonAppendField(out, "host", kernel_->host_name());
  JsonAppendField(out, "ready", kernel_->tasks_pending());
  const SimTime backlog = kernel_->cpu().busy_until() > at ? kernel_->cpu().busy_until() - at : 0;
  JsonAppendField(out, "backlog", backlog);
  JsonAppendField(out, "busy", kernel_->cpu().total_busy());
  out += ",\"g\":{";
  bool first = true;
  kernel_->ForEachProtocol([&](const Protocol& p) {
    p.ExportGauges([&](std::string_view name, uint64_t v) {
      if (!first) {
        out += ',';
      }
      first = false;
      JsonAppendEscaped(out, p.name() + "." + std::string(name));
      out += ':';
      out += std::to_string(v);
    });
  });
  out += "}}";
  lines_.push_back(std::move(line));
}

// --- SegmentSeries -------------------------------------------------------------

void SegmentSeries::OnTransmit(SimTime start, SimTime tx_time, uint64_t bytes,
                               uint64_t queue_depth) {
  // Boundaries <= start are cut first, so a sample at S covers exactly the
  // transmissions with start < S (starts are strictly monotone).
  FlushTo(start);
  ++frames_;
  bytes_ += bytes;
  busy_ += tx_time;
  last_depth_ = queue_depth;
}

void SegmentSeries::FlushTo(SimTime t) {
  while (next_ <= t) {
    EmitSample(next_);
    next_ += period_;
  }
}

void SegmentSeries::EmitSample(SimTime at) {
  StatLine line;
  line.t = at;
  std::string& out = line.text;
  const SimTime window = busy_ - busy_at_boundary_;
  busy_at_boundary_ = busy_;
  out += "{\"k\":\"seg\"";
  JsonAppendField(out, "net", static_cast<int64_t>(net_));
  JsonAppendField(out, "t", at);
  JsonAppendField(out, "seg", static_cast<int64_t>(segment_));
  JsonAppendField(out, "frames", frames_);
  JsonAppendField(out, "bytes", bytes_);
  JsonAppendField(out, "busy", busy_);
  JsonAppendField(out, "busy_w", window);
  // Utilization of the elapsed window, parts per million (integer, so the
  // line is byte-stable). A transmission is attributed entirely to the window
  // containing its bus acquisition, so short windows can exceed 1e6.
  JsonAppendField(out, "util_ppm",
                  static_cast<uint64_t>(period_ > 0 ? window * 1000000 / period_ : 0));
  JsonAppendField(out, "qdepth", last_depth_);
  out += "}";
  lines_.push_back(std::move(line));
}

// --- StatSampler ---------------------------------------------------------------

StatSampler::StatSampler(SimTime period) : period_(period > 0 ? period : Msec(1)) {}

StatSampler::~StatSampler() {
  for (auto& probe : probes_) {
    if (probe->queue != nullptr) {
      probe->queue->set_stat_probe(nullptr);
    }
  }
}

int StatSampler::AttachNet() { return next_net_++; }

void StatSampler::QueueProbe::BeforeFire(SimTime at) {
  if (at < min_next) {
    return;
  }
  SimTime next_min = kSimTimeNever;
  for (HostSeries* h : hosts) {
    h->FlushTo(at);
    if (h->next_ < next_min) {
      next_min = h->next_;
    }
  }
  min_next = next_min;
}

void StatSampler::RegisterKernel(int net, Kernel& kernel) {
  hosts_.emplace_back();
  HostSeries& h = hosts_.back();
  h.kernel_ = &kernel;
  h.net_ = net;
  h.period_ = period_;
  h.next_ = period_;  // first boundary: one period in (t=0 is setup state)
  int idx = 0;
  for (const HostSeries& other : hosts_) {
    if (&other != &h && other.net_ == net) {
      ++idx;
    }
  }
  h.idx_ = idx;

  EventQueue& q = kernel.events();
  QueueProbe* probe = nullptr;
  for (auto& p : probes_) {
    if (p->queue == &q) {
      probe = p.get();
      break;
    }
  }
  if (probe == nullptr) {
    probes_.push_back(std::make_unique<QueueProbe>());
    probe = probes_.back().get();
    probe->queue = &q;
    probe->net = net;
    q.set_stat_probe(probe);
  }
  probe->hosts.push_back(&h);
  if (h.next_ < probe->min_next) {
    probe->min_next = h.next_;
  }
}

SegmentSeries* StatSampler::RegisterSegment(int net, int segment_id) {
  segments_.emplace_back();
  SegmentSeries& s = segments_.back();
  s.net_ = net;
  s.segment_ = segment_id;
  s.period_ = period_;
  s.next_ = period_;
  return &s;
}

void StatSampler::FlushNet(int net, SimTime t) {
  for (HostSeries& h : hosts_) {
    if (h.net_ == net) {
      h.FlushTo(t);
    }
  }
  for (SegmentSeries& s : segments_) {
    if (s.net_ == net) {
      s.FlushTo(t);
    }
  }
  for (auto& probe : probes_) {
    if (probe->net == net && probe->queue != nullptr) {
      SimTime next_min = kSimTimeNever;
      for (const HostSeries* h : probe->hosts) {
        if (h->next_ < next_min) {
          next_min = h->next_;
        }
      }
      probe->min_next = next_min;
    }
  }
}

void StatSampler::DetachNet(int net) {
  for (auto& probe : probes_) {
    if (probe->net == net && probe->queue != nullptr) {
      probe->queue->set_stat_probe(nullptr);
      probe->queue = nullptr;
    }
  }
  for (HostSeries& h : hosts_) {
    if (h.net_ == net) {
      h.kernel_ = nullptr;
    }
  }
}

size_t StatSampler::num_samples() const {
  size_t n = 0;
  for (const HostSeries& h : hosts_) {
    n += h.lines_.size();
  }
  for (const SegmentSeries& s : segments_) {
    n += s.lines_.size();
  }
  return n;
}

std::string StatSampler::ToJsonl() const {
  // Canonical order: (net, t, kind, index), independent of which probe or
  // segment emitted a line first.
  struct Ref {
    int net;
    SimTime t;
    int kind;  // 0 = host, 1 = segment
    int idx;
    const std::string* text;
  };
  std::vector<Ref> refs;
  refs.reserve(num_samples());
  for (const HostSeries& h : hosts_) {
    for (const StatLine& l : h.lines_) {
      refs.push_back(Ref{h.net_, l.t, 0, h.idx_, &l.text});
    }
  }
  for (const SegmentSeries& s : segments_) {
    for (const StatLine& l : s.lines_) {
      refs.push_back(Ref{s.net_, l.t, 1, s.segment_, &l.text});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.net != b.net) return a.net < b.net;
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.idx < b.idx;
  });
  std::string out;
  out.reserve(refs.size() * 96 + 128);
  out += "{\"k\":\"meta\",\"v\":1,\"period_ns\":" + std::to_string(period_) +
         ",\"nets\":" + std::to_string(next_net_) +
         ",\"samples\":" + std::to_string(refs.size()) + "}\n";
  for (const Ref& r : refs) {
    out += *r.text;
    out += '\n';
  }
  return out;
}

bool StatSampler::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string s = ToJsonl();
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace xk
