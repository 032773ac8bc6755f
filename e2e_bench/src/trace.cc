#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2e {
namespace {

// Spans this thread has open, innermost last.
thread_local std::vector<int> open_spans;

std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const double now = NowMs();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now, now, Current(), 0});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = NowMs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ms = now;
}

int Tracer::Add(const std::string& name, double start_ms, double end_ms,
                int parent, uint64_t request_id) {
  if (!enabled_) return -1;
  if (parent < 0) parent = Current();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ms, end_ms, parent, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Current() const {
  return open_spans.empty() ? -1 : open_spans.back();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[LayerOf(s.name)] += std::max(0.0, s.end_ms - s.start_ms - covered);
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Each span goes on its root's track so nested spans stack in the viewer.
  std::vector<int> root(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    root[i] = p < 0 ? static_cast<int>(i) : root[p];
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), root[i],
                 s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
