#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace hybridgnn {

RecommendService::RecommendService(const TopKRecommender* recommender,
                                   ServiceOptions options)
    : recommender_(recommender), options_(options) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  // Always own a pool (even single-threaded) so batch scoring never falls
  // back to the recommender's transient-pool path mid-request.
  pool_ = std::make_unique<ThreadPool>(ResolveNumThreads(options_.num_threads));
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

RecommendService::RecommendService(const RecommenderSource* source,
                                   ServiceOptions options)
    : recommender_(nullptr), source_(source), options_(options) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  pool_ = std::make_unique<ThreadPool>(ResolveNumThreads(options_.num_threads));
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

RecommendService::~RecommendService() { Shutdown(); }

std::future<RecommendResponse> RecommendService::Submit(
    const TopKQuery& query) {
  return Submit(query, options_.default_deadline_ms);
}

std::future<RecommendResponse> RecommendService::Submit(
    const TopKQuery& query, double deadline_ms) {
  Pending p;
  p.query = query;
  p.enqueued = std::chrono::steady_clock::now();
  if (deadline_ms > 0.0) {
    p.deadline =
        p.enqueued +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  }
  std::future<RecommendResponse> future = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      RecommendResponse resp;
      resp.status = Status::FailedPrecondition("service is shut down");
      p.promise.set_value(std::move(resp));
      return future;
    }
    // Load shed: with the queue already at the cap, one more request would
    // only queue behind work we cannot keep up with. Failing fast here —
    // before the dispatcher ever sees the request — is what keeps p99
    // bounded under overload. Sheds stay out of the latency histogram by
    // design (see ServeMetrics).
    if (options_.max_queue_depth > 0 &&
        pending_.size() >= options_.max_queue_depth) {
      metrics_.shed.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& g_shed =
          obs::GlobalRegistry().GetCounter("serve/shed");
      g_shed.Add();
      RecommendResponse resp;
      resp.status = Status::ResourceExhausted(
          "request queue full (" + std::to_string(options_.max_queue_depth) +
          " pending)");
      p.promise.set_value(std::move(resp));
      return future;
    }
    pending_.push_back(std::move(p));
  }
  work_available_.notify_one();
  return future;
}

size_t RecommendService::CacheKeyHash::operator()(const CacheKey& key) const {
  // FNV-style mix of the key fields; the shifts keep low-entropy small
  // integers (rel, k) from colliding systematically.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(key.node);
  mix(static_cast<uint64_t>(key.rel) | (static_cast<uint64_t>(key.k) << 16));
  mix(static_cast<uint64_t>(key.candidate_type) |
      (static_cast<uint64_t>(key.exclude_train_neighbors) << 16));
  mix(key.version);
  return static_cast<size_t>(h);
}

const std::vector<Recommendation>* RecommendService::CacheLookup(
    const CacheKey& key) {
  if (options_.result_cache_capacity == 0) return nullptr;
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return nullptr;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);  // touch
  return &it->second->items;
}

void RecommendService::CacheInsert(CacheKey key,
                                   std::vector<Recommendation> items) {
  if (options_.result_cache_capacity == 0) return;
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    it->second->items = std::move(items);
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.push_front(CacheEntry{key, std::move(items)});
  cache_index_[key] = cache_lru_.begin();
  while (cache_lru_.size() > options_.result_cache_capacity) {
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
  }
}

void RecommendService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  // Exactly one caller performs the join; late callers block here until the
  // dispatcher is reaped, then see joinable() == false and fall through.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void RecommendService::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return shutdown_ || !pending_.empty(); });
    if (pending_.empty()) return;  // shutdown with nothing left to drain

    // Micro-batch accumulation: wait out the window from the *first*
    // request unless the batch fills (or shutdown asks us to flush now).
    if (options_.batch_window_ms > 0.0) {
      const auto deadline =
          pending_.front().enqueued +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  options_.batch_window_ms));
      while (!shutdown_ && pending_.size() < options_.max_batch_size) {
        if (work_available_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }

    const size_t n = std::min(pending_.size(), options_.max_batch_size);
    std::vector<Pending> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    lock.unlock();
    ProcessBatch(std::move(batch));
    lock.lock();
  }
}

void RecommendService::ProcessBatch(std::vector<Pending> batch) {
  // Per-service counters plus their process-wide mirrors in the obs
  // registry (references are stable, so only relaxed atomics past init).
  static obs::Counter& g_requests =
      obs::GlobalRegistry().GetCounter("serve/requests");
  static obs::Counter& g_errors =
      obs::GlobalRegistry().GetCounter("serve/errors");
  static obs::Counter& g_batches =
      obs::GlobalRegistry().GetCounter("serve/batches");
  static obs::Counter& g_items =
      obs::GlobalRegistry().GetCounter("serve/items_returned");
  static obs::Counter& g_deadline =
      obs::GlobalRegistry().GetCounter("serve/deadline_exceeded");
  static obs::Counter& g_cache_hits =
      obs::GlobalRegistry().GetCounter("serve/cache_hits");
  static obs::Counter& g_cache_misses =
      obs::GlobalRegistry().GetCounter("serve/cache_misses");
  static obs::LatencyHistogram& g_latency =
      obs::Stage("serve/request_latency");
  static obs::LatencyHistogram& g_queue_wait = obs::Stage("serve/queue_wait");
  static obs::LatencyHistogram& g_batch_service =
      obs::Stage("serve/batch_service");

  const auto start = std::chrono::steady_clock::now();
  metrics_.batches.fetch_add(1, std::memory_order_relaxed);
  g_batches.Add();
  // Queue wait is per request — each spent its own time in the queue. The
  // old code's single stamp at batch end hid exactly this component.
  for (const Pending& p : batch) {
    const double wait_ms =
        std::chrono::duration<double, std::milli>(start - p.enqueued).count();
    metrics_.queue_wait.Record(wait_ms);
    g_queue_wait.Record(wait_ms);
  }

  // Live mode pins one store version per micro-batch: the pin keeps the
  // version's tables alive through the scoring pass even if the ingest
  // thread publishes (and thereby retires) newer versions meanwhile. The
  // version number doubles as the cache epoch: a publish changes it, so
  // stale cached results simply stop being reachable.
  RecommenderSource::Pinned pinned;
  const TopKRecommender* recommender = recommender_;
  uint64_t store_version = 0;
  if (source_ != nullptr) {
    pinned = source_->AcquireRecommender();
    recommender = pinned.recommender;
    store_version = pinned.version;
  }

  // Records the batch's service time. Runs just before the batch's last
  // promise is fulfilled, so a caller holding any response of this batch
  // already sees it in metrics().
  auto record_service = [&] {
    const double service_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    metrics_.batch_service.Record(service_ms);
    g_batch_service.Record(service_ms);
  };
  size_t unresolved = batch.size();

  // Resolves one request now (deadline misses and cache hits never reach
  // the scoring pool).
  auto resolve = [&](Pending& p, RecommendResponse resp) {
    resp.latency_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - p.enqueued)
                          .count();
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.items_returned.fetch_add(resp.items.size(),
                                      std::memory_order_relaxed);
    g_requests.Add();
    g_items.Add(resp.items.size());
    if (!resp.status.ok()) {
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
      g_errors.Add();
    }
    metrics_.latency.Record(resp.latency_ms);
    g_latency.Record(resp.latency_ms);
    if (--unresolved == 0) record_service();
    p.promise.set_value(std::move(resp));
  };

  // Admission pass: expire dead requests, serve warm cache hits, and keep
  // only what actually needs scoring.
  const bool cache_on = options_.result_cache_capacity > 0;
  std::vector<size_t> to_score;
  std::vector<TopKQuery> queries;
  to_score.reserve(batch.size());
  queries.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (start >= p.deadline) {
      RecommendResponse resp;
      resp.status = Status::DeadlineExceeded(
          "deadline expired before scoring started");
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      g_deadline.Add();
      resolve(p, std::move(resp));
      continue;
    }
    const CacheKey key{p.query.node,           p.query.rel,
                       p.query.k,              p.query.candidate_type,
                       p.query.exclude_train_neighbors, store_version};
    if (const std::vector<Recommendation>* hit = CacheLookup(key)) {
      RecommendResponse resp;
      resp.items = *hit;
      metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      g_cache_hits.Add();
      resolve(p, std::move(resp));
      continue;
    }
    if (cache_on) {
      metrics_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      g_cache_misses.Add();
    }
    to_score.push_back(i);
    queries.push_back(p.query);
  }

  if (!queries.empty()) {
    std::vector<StatusOr<std::vector<Recommendation>>> results =
        recommender->RecommendBatch(queries, pool_.get());
    for (size_t j = 0; j < to_score.size(); ++j) {
      Pending& p = batch[to_score[j]];
      RecommendResponse resp;
      if (results[j].ok()) {
        resp.items = std::move(results[j]).value();
        if (cache_on) {
          CacheInsert({p.query.node, p.query.rel, p.query.k,
                       p.query.candidate_type, p.query.exclude_train_neighbors,
                       store_version},
                      resp.items);
        }
      } else {
        resp.status = results[j].status();
      }
      resolve(p, std::move(resp));
    }
  }
}

}  // namespace hybridgnn
