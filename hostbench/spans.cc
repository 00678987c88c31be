#include "hostbench/spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace hostbench {

std::vector<Ns> SelfTimes(const std::vector<Span>& spans) {
  std::vector<Ns> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  // Children grouped by parent, in start order, so each parent's covered
  // part is one merge pass over its children's intervals.
  std::vector<uint32_t> kids;
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoSpan) {
      kids.push_back(i);
    }
  }
  std::sort(kids.begin(), kids.end(), [&](uint32_t a, uint32_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start < spans[b].start;
  });
  size_t i = 0;
  while (i < kids.size()) {
    const Span& parent = spans[spans[kids[i]].parent];
    Ns covered = 0;
    Ns run_start = 0;
    Ns run_end = 0;
    bool in_run = false;
    size_t j = i;
    for (; j < kids.size() && spans[kids[j]].parent == spans[kids[i]].parent; ++j) {
      const Ns s = std::max(spans[kids[j]].start, parent.start);
      const Ns e = std::min(spans[kids[j]].end, parent.end);
      if (e <= s) {
        continue;
      }
      if (in_run && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (in_run) {
        covered += run_end - run_start;
      }
      run_start = s;
      run_end = e;
      in_run = true;
    }
    if (in_run) {
      covered += run_end - run_start;
    }
    self[spans[kids[i]].parent] -= covered;
    i = j;
  }
  return self;
}

int SpanRecorder::FindName(const char* name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

uint32_t SpanRecorder::NameIndex(const char* name) {
  const int found = FindName(name);
  if (found >= 0) {
    return static_cast<uint32_t>(found);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanRecorder::Begin(const char* name, uint64_t op) {
  Span s;
  s.name = NameIndex(name);
  s.parent = open_.empty() ? kNoSpan : open_.back();
  s.op = op;
  const auto id = static_cast<uint32_t>(spans_.size());
  open_.push_back(id);
  s.start = NowNs();
  spans_.push_back(s);
  return id;
}

void SpanRecorder::End(uint32_t id) {
  spans_[id].end = NowNs();
  self_.clear();
  // Scopes close innermost-first, so `id` is the top of the open stack.
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

const std::vector<Ns>& SpanRecorder::Self() const {
  if (self_.size() != spans_.size()) {
    self_ = SelfTimes(spans_);
  }
  return self_;
}

SpanRecorder::Totals SpanRecorder::Summarize(const char* name) const {
  Totals t;
  const int idx = FindName(name);
  if (idx < 0) {
    return t;
  }
  const std::vector<Ns>& self = Self();
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == static_cast<uint32_t>(idx)) {
      ++t.count;
      t.total += spans_[i].end - spans_[i].start;
      t.self += self[i];
    }
  }
  return t;
}

std::vector<Ns> SpanRecorder::Durations(const char* name) const {
  std::vector<Ns> out;
  const int idx = FindName(name);
  for (const Span& s : spans_) {
    if (idx >= 0 && s.name == static_cast<uint32_t>(idx)) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<Ns>& self = Self();
  const Ns t0 = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                 "\"op\":%llu,\"self_ns\":%lld}\n",
                 i, names_[s.name], static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0),
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace hostbench
