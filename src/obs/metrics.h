#ifndef HYBRIDGNN_OBS_METRICS_H_
#define HYBRIDGNN_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/histogram.h"

namespace hybridgnn::obs {

/// Monotonically increasing event count. Add() is one relaxed fetch_add —
/// safe and cheap to call from hot paths on any thread.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (loss, queue depth, thread count, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of every metric in a registry, safe to serialize or
/// inspect after the producing code has moved on.
struct RegistrySnapshot {
  struct Stage {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0.0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;  // p100 (bucket upper bound)
  };
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<Stage> stages;
};

/// Process-wide table of named counters, gauges, and stage-latency
/// histograms. Names follow the `subsystem/stage` scheme (e.g.
/// "core/sgns_epoch", "core/gather", "serve/requests").
///
/// Get*() registers on first use and returns a reference that stays valid
/// for the registry's lifetime — entries are never removed, so hot paths can
/// cache the reference (typically in a function-local static) and then touch
/// only relaxed atomics. Registration itself takes a mutex; updates through
/// the returned references never do.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);

  /// Copies every metric's current value.
  RegistrySnapshot Snapshot() const;

  /// Zeroes every metric in place. References handed out by Get*() remain
  /// valid. Intended for tests and between-run resets.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

/// The process-wide registry every built-in instrumentation site records
/// into.
MetricRegistry& GlobalRegistry();

/// Shorthand for GlobalRegistry().GetHistogram(name): the stage timer named
/// `subsystem/stage`.
LatencyHistogram& Stage(std::string_view name);

/// RAII stage span: records the elapsed wall time into `hist` when it goes
/// out of scope. Usage:
///   obs::ScopedTimer timer(obs::Stage("core/sgns_epoch"));
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { hist_->Record(ElapsedMs()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Serializes a snapshot of `registry` as a JSON object:
///   {"counters": {name: int, ...},
///    "gauges":   {name: float, ...},
///    "stages":   {name: {"count": int, "total_ms": f, "mean_ms": f,
///                        "p50_ms": f, "p99_ms": f, "max_ms": f}, ...}}
std::string ToJson(const MetricRegistry& registry);

/// Writes ToJson(registry) to `path` (trailing newline included).
Status WriteJsonFile(const MetricRegistry& registry, const std::string& path);

}  // namespace hybridgnn::obs

#endif  // HYBRIDGNN_OBS_METRICS_H_
