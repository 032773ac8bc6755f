#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

namespace e2e {

using hybridgnn::RecommendResponse;
using hybridgnn::RecommendService;
using hybridgnn::TopKQuery;

namespace {
constexpr std::chrono::microseconds kSpinBeforeDue{1000};
}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TailQuantile(size_t n) {
  if (n == 0) return 1.0;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

std::vector<double> WindowTailsMs(const std::vector<RequestSample>& samples,
                                  size_t windows) {
  std::vector<double> tails;
  if (samples.empty()) return tails;
  windows = std::clamp<size_t>(windows, 1, samples.size());
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> lat;
    for (size_t i = samples.size() * w / windows;
         i < samples.size() * (w + 1) / windows; ++i) {
      lat.push_back(samples[i].done_ms - samples[i].due_ms);
    }
    tails.push_back(Quantile(lat, TailQuantile(lat.size())));
  }
  return tails;
}

std::vector<double> OpenLoopResult::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const RequestSample& s : samples) out.push_back(s.done_ms - s.due_ms);
  return out;
}

std::vector<double> OpenLoopResult::LatenessMs() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const RequestSample& s : samples) out.push_back(s.sent_ms - s.due_ms);
  return out;
}

size_t OpenLoopResult::failed() const {
  return static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [](const RequestSample& s) { return !s.ok; }));
}

OpenLoopResult RunOpenLoop(RecommendService& service,
                           std::span<const TopKQuery> queries,
                           const OpenLoopOptions& options,
                           const Tracer& clock) {
  OpenLoopResult result;
  std::vector<std::future<RecommendResponse>> futures;
  const Clock::time_point start = Clock::now();
  const double start_ms = clock.MsAt(start);
  const double interval_s = 1.0 / options.rate_qps;
  for (uint64_t i = 0;; ++i) {
    const double due_s = static_cast<double>(i) * interval_s;
    if (options.stop != nullptr) {
      if (options.stop->load(std::memory_order_acquire)) break;
    } else if (due_s >= options.seconds) {
      break;
    }
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s));
    // Sleep to shortly before the due time, then spin: a sleeping thread on
    // a virtual CPU can take a while to wake, and a generator that spun the
    // whole interval would take a CPU from the threads being measured.
    std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due) {
    }
    RequestSample s;
    s.id = options.first_id + i;
    s.query = static_cast<size_t>(i % queries.size());
    s.due_ms = start_ms + due_s * 1e3;
    s.sent_ms = clock.NowMs();
    futures.push_back(service.Submit(queries[s.query]));
    result.samples.push_back(s);
  }
  // Completion is the send instant plus the response's own latency, which
  // the service stamps on the same steady clock when the answer is ready;
  // a waiting thread's wake-up delay is not part of it.
  for (size_t i = 0; i < futures.size(); ++i) {
    RecommendResponse resp = futures[i].get();
    RequestSample& s = result.samples[i];
    s.done_ms = s.sent_ms + resp.latency_ms;
    s.ok = resp.status.ok();
    if (!s.ok && result.first_error.empty()) {
      result.first_error = resp.status.ToString();
    }
    if (options.keep_every > 0 && i % options.keep_every == 0) {
      result.kept.emplace_back(s.query, std::move(resp.items));
    }
  }
  return result;
}

double DrainQps(RecommendService& service, std::span<const TopKQuery> queries,
                size_t count, size_t first_query, size_t* failed,
                std::string* first_error) {
  std::vector<std::future<RecommendResponse>> futures;
  std::vector<double> sent_ms;
  futures.reserve(count);
  sent_ms.reserve(count);
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < count; ++i) {
    sent_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    futures.push_back(
        service.Submit(queries[(first_query + i) % queries.size()]));
  }
  // An answer is ready when the service stamps it, not when this thread
  // wakes to collect it.
  double last_done_ms = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const RecommendResponse resp = futures[i].get();
    if (!resp.status.ok()) {
      ++*failed;
      if (first_error->empty()) *first_error = resp.status.ToString();
    }
    last_done_ms = std::max(last_done_ms, sent_ms[i] + resp.latency_ms);
  }
  return static_cast<double>(count) / (last_done_ms * 1e-3);
}

}  // namespace e2e
