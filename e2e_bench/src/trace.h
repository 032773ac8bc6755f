#ifndef HYBRIDGNN_E2E_BENCH_TRACE_H_
#define HYBRIDGNN_E2E_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// One recorded interval. `name` is "<layer>.<what>"; the layer prefix is
/// what self times are grouped by. Times are ms since the tracer's origin.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;          // index into the span list, -1 for a root
  uint64_t request_id = 0;  // serving requests only; 0 otherwise
};

/// In-memory span recorder. The benchmark opens a span around every public
/// call it makes into a layer; nothing is written until the run ends. When
/// disabled every call is a no-op, so an untraced run pays one branch per
/// call site.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }
  double NowMs() const { return MsAt(Clock::now()); }
  double MsAt(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - origin_).count();
  }

  /// Opens a span whose parent is the innermost span this thread has open.
  /// Returns -1 when disabled.
  int Begin(const std::string& name);
  void End(int id);

  /// Records an already-timed interval under `parent` (-1: the calling
  /// thread's innermost open span). Returns its id, -1 when disabled.
  int Add(const std::string& name, double start_ms, double end_ms,
           int parent = -1, uint64_t request_id = 0);

  /// Innermost span the calling thread has open, or -1.
  int Current() const;

  /// Sum over spans of (duration - time covered by the span's children),
  /// grouped by layer prefix.
  std::map<std::string, double> SelfMsByLayer() const;

  size_t size() const { return spans_.size(); }

  /// Writes the spans as Chrome trace-event JSON ("X" events, one track per
  /// root span; parent index and request id in args).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace e2e

#endif  // HYBRIDGNN_E2E_BENCH_TRACE_H_
