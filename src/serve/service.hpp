#pragma once
// SimService: the in-process heart of the simulation server — a result
// cache, an in-flight dedupe table, and a batch executor in front of
// run_point(), independent of any transport so it is testable (and usable)
// without sockets.
//
// A submitted request takes one of three paths:
//
//   cache hit   answered immediately on the submitting thread (memory or
//               disk tier, see serve/cache.hpp);
//   coalesced   an identical point is already being simulated: the request
//               piggybacks on it and is answered by the same computation —
//               a thousand users asking for the same sweep point cost one
//               simulation;
//   miss        the point is queued onto the runner ThreadPool (the same
//               work-stealing pool the sweep runner batches points on) and
//               computed by run_point(); the result is inserted into the
//               cache and every waiter is answered.
//
// submit() never blocks on simulation and callbacks never wedge the pool:
// the in-flight owner computes on a pool thread while every waiter is a
// stored callback, not a blocked thread, so dedupe cannot deadlock however
// small the pool is. Invalid requests (bad geometry, unknown plugin params)
// surface as ok=false responses carrying the CheckError text — the service
// keeps running (satellite: errors are structured responses, not daemon
// deaths).
//
// Metrics, à la lissandra's mem-node bookkeeping: request / error /
// coalesced counters, cache hit rates, service-latency distributions
// (overall and split hit vs computed; p50/p99 from a fixed-width histogram
// that saturates at 10 s), and a per-topology load table.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"

namespace mempool::runner {
class ThreadPool;
}  // namespace mempool::runner

namespace mempool::serve {

struct ServiceConfig {
  /// Simulation workers (runner::ThreadPool); 0 = MEMPOOL_THREADS env /
  /// hardware concurrency.
  unsigned threads = 0;
  /// In-memory result-cache entries.
  std::size_t cache_capacity = 1024;
  /// On-disk cache directory; empty = memory tier only.
  std::string cache_dir;
  /// Admission bound: maximum distinct points in flight (queued or
  /// computing). Beyond it new points are shed with kind="overloaded" and a
  /// retry_after_ms hint instead of growing the queue without bound. Cache
  /// hits and coalesced requests are exempt — they consume no worker.
  /// 0 = unbounded (the pre-resilience behavior).
  std::size_t max_queue = 0;
  /// The retry hint attached to shed responses.
  int retry_after_ms = 250;
  /// Periodic engine-checkpoint interval in simulated cycles for long
  /// running points; 0 disables. With a cache_dir, each in-flight point
  /// write-through persists its latest mempool.ckpt.v1 image to
  /// <cache_dir>/<key>.ckpt (write-then-rename), a restarted daemon resumes
  /// the point from the image, and the file is removed once the result is
  /// cached. Without a cache_dir the interval only paces deadline polling.
  uint64_t checkpoint_every = 0;
};

/// Everything the server reports back per request.
struct ServiceResponse {
  bool ok = false;
  SimResult result;       ///< Valid when ok.
  std::string error;      ///< CheckError text when !ok.
  /// Machine-readable failure class when !ok: "invalid" (bad request /
  /// CheckError), "liveness" (progress watchdog fired), "deadline_exceeded"
  /// (the request's wall-clock budget ran out), "overloaded" (admission
  /// queue full, retry_after_ms says when to come back). Empty when ok.
  std::string kind;
  /// Backoff hint in ms, nonzero only with kind="overloaded".
  int retry_after_ms = 0;
  /// mempool.liveness.v1 report when !ok because the point's progress
  /// watchdog fired (LivenessError): the wedged point answers with the
  /// stall attribution instead of hanging the connection. Null otherwise.
  Json liveness;
  std::string key;        ///< SimRequest::key() (content hash).
  bool cache_hit = false; ///< Served from the result cache.
  bool coalesced = false; ///< Piggybacked on an in-flight identical point.
  double service_ms = 0;  ///< Arrival to completion, this request.
};

class SimService {
 public:
  using Callback = std::function<void(const ServiceResponse&)>;

  explicit SimService(const ServiceConfig& cfg = {});
  ~SimService();  ///< Drains in-flight computations.

  /// Asynchronous entry. @p done runs exactly once: on the submitting thread
  /// for cache hits, on a pool thread otherwise. Callbacks must not throw
  /// and must not call the blocking run() (they execute on pool workers).
  void submit(const SimRequest& req, Callback done);

  /// Blocking convenience wrapper around submit() for clients, tools, and
  /// tests. Must not be called from a pool callback (it would wait on the
  /// thread it occupies).
  ServiceResponse run(const SimRequest& req);

  /// Block until every submitted request has been answered.
  void drain();

  unsigned threads() const;
  ResultCache& cache() { return cache_; }

  /// Metrics snapshot: counters, cache stats, p50/p99 service latency
  /// (overall / hit / computed), per-topology load (see README).
  Json metrics_json() const;

 private:
  struct Waiter {
    Callback done;
    std::chrono::steady_clock::time_point arrival;
    bool coalesced = false;
    /// Absolute expiry (arrival + the request's deadline_ms); time_point::max
    /// when the request carries no deadline.
    std::chrono::steady_clock::time_point deadline;
  };
  struct Inflight {
    SimRequest request;
    CanonicalForm form;  ///< Of request; its text keys inflight_.
    std::vector<Waiter> waiters;
  };

  void compute(const std::shared_ptr<Inflight>& entry);
  void record_and_deliver(const ServiceResponse& base,
                          const std::string& topology, const Waiter& waiter);
  /// True when every waiter's deadline has expired — the abort predicate a
  /// running point polls between chunks. A single no-deadline waiter keeps
  /// the point alive (a coalesced patient request must still be answered).
  bool all_deadlines_expired(const std::shared_ptr<Inflight>& entry);
  /// <cache_dir>/<key>.ckpt, or "" when checkpoint persistence is off.
  std::string checkpoint_path(const std::string& key) const;

  ServiceConfig cfg_;
  ResultCache cache_;
  std::unique_ptr<runner::ThreadPool> pool_;

  mutable std::mutex inflight_mu_;
  /// Keyed by the canonical request string (exact, collision-free).
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

  mutable std::mutex metrics_mu_;
  uint64_t requests_ = 0;
  uint64_t errors_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t shed_ = 0;               ///< Overload-shed requests.
  uint64_t deadline_exceeded_ = 0;  ///< Deadline-expired requests.
  uint64_t checkpoints_ = 0;        ///< Point snapshots persisted to disk.
  uint64_t resumed_ = 0;            ///< Points resumed from a disk image.
  RunningStat service_ms_;
  Histogram service_hist_;
  Histogram hit_hist_;
  Histogram computed_hist_;
  std::map<std::string, uint64_t> topology_load_;
};

}  // namespace mempool::serve
