#ifndef HYBRIDGNN_E2E_BENCH_LOADGEN_H_
#define HYBRIDGNN_E2E_BENCH_LOADGEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/service.h"
#include "serve/topk.h"
#include "trace.h"

namespace e2e {

/// One request as the generator saw it. Latency is done_ms - due_ms: a
/// request counts the time it should already have been sent, so a stall
/// that delays sending shows up in every request behind it.
struct RequestSample {
  uint64_t id = 0;
  size_t query = 0;  // index into the query set
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool ok = false;
};

struct OpenLoopResult {
  std::vector<RequestSample> samples;
  /// Served lists of every `keep_every`-th request: (query index, items).
  std::vector<std::pair<size_t, std::vector<hybridgnn::Recommendation>>> kept;
  /// Status of the first failed request, empty when none failed.
  std::string first_error;

  std::vector<double> LatenciesMs() const;
  std::vector<double> LatenessMs() const;
  size_t failed() const;
};

struct OpenLoopOptions {
  double rate_qps = 1000.0;
  /// Send for this long; ignored when `stop` is given.
  double seconds = 1.0;
  /// Send until this flag turns true.
  const std::atomic<bool>* stop = nullptr;
  /// Keep the served list of every n-th request (0 keeps none).
  size_t keep_every = 0;
  /// Request ids start here, so ids stay unique across phases.
  uint64_t first_id = 1;
};

/// Sends queries[i % size] on a fixed schedule (request i is due at
/// start + i / rate) from the calling thread, whether or not earlier
/// requests have finished, then collects every response.
OpenLoopResult RunOpenLoop(hybridgnn::RecommendService& service,
                           std::span<const hybridgnn::TopKQuery> queries,
                           const OpenLoopOptions& options,
                           const Tracer& clock);

/// Completions per second of `count` requests (queries from `first_query`
/// on, cycling) submitted at once: the rate at which the service drains a
/// full queue, which is the highest rate it sustains without a growing
/// backlog. Adds the failed requests to `failed` and keeps the status of the
/// first failure in `first_error` while it is empty.
double DrainQps(hybridgnn::RecommendService& service,
                std::span<const hybridgnn::TopKQuery> queries, size_t count,
                size_t first_query, size_t* failed, std::string* first_error);

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest quantile, up to 0.99, that a sample of `n` supports with at
/// least ten values beyond it.
double TailQuantile(size_t n);

/// Splits `samples` (in send order) into `windows` equal runs and returns
/// each run's tail latency at its TailQuantile, in order.
std::vector<double> WindowTailsMs(const std::vector<RequestSample>& samples,
                                  size_t windows);

}  // namespace e2e

#endif  // HYBRIDGNN_E2E_BENCH_LOADGEN_H_
