#include "serve/service.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "runner/thread_pool.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"

namespace mempool::serve {

namespace {

/// Service-latency histograms: 10 µs buckets up to 10 s. Cache hits land in
/// the first few buckets, cold 256-core points in the hundreds of ms;
/// quantiles of anything slower saturate at the top edge.
constexpr double kLatencyBucketMs = 0.01;
constexpr std::size_t kLatencyBuckets = 1'000'000;

/// Chunk size for deadline polling when no checkpoint interval is
/// configured: small enough that an expired budget aborts the point within
/// a chunk of simulation, large enough that the poll (a mutex and a waiter
/// scan) is noise.
constexpr uint64_t kDeadlinePollCycles = 1024;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// count/mean/max from the stat plus p50/p99 from the histogram.
Json latency_json(const RunningStat& stat, const Histogram& hist) {
  Json j = Json::object();
  j.set("count", stat.count());
  j.set("mean", stat.mean());
  j.set("max", stat.max());
  j.set("p50", hist.quantile(0.50));
  j.set("p99", hist.quantile(0.99));
  return j;
}

/// Entire file as raw bytes; nullopt when it does not exist or cannot be
/// read. Checkpoint images are binary — no JSON layer.
std::optional<std::string> read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buf).str();
}

/// Write-temp-then-rename so a daemon killed mid-write leaves either the
/// previous complete image or none — never a torn file that a restart would
/// have to reject.
bool write_binary_file_atomic(const std::string& path,
                              const std::string& data) {
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << std::this_thread::get_id();
  const std::string tmp = tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace

SimService::SimService(const ServiceConfig& cfg)
    : cfg_(cfg),
      cache_(cfg.cache_capacity, cfg.cache_dir),
      pool_(std::make_unique<runner::ThreadPool>(cfg.threads)),
      service_hist_(kLatencyBucketMs, kLatencyBuckets),
      hit_hist_(kLatencyBucketMs, kLatencyBuckets),
      computed_hist_(kLatencyBucketMs, kLatencyBuckets) {}

SimService::~SimService() { drain(); }

void SimService::drain() { pool_->wait_idle(); }

unsigned SimService::threads() const { return pool_->num_threads(); }

std::string SimService::checkpoint_path(const std::string& key) const {
  if (cfg_.checkpoint_every == 0 || cfg_.cache_dir.empty()) return "";
  return cfg_.cache_dir + "/" + key + ".ckpt";
}

void SimService::submit(const SimRequest& req, Callback done) {
  const auto now = std::chrono::steady_clock::now();
  const Waiter arrival{std::move(done), now, /*coalesced=*/false,
                       req.deadline_ms == 0
                           ? std::chrono::steady_clock::time_point::max()
                           : now + std::chrono::milliseconds(req.deadline_ms)};
  // The one canonicalization of this request: the cache lookup, the
  // in-flight table, the computation and the cache insert all share it.
  CanonicalForm form = req.canonical_form();

  if (auto cached = cache_.lookup(form)) {
    ServiceResponse resp;
    resp.ok = true;
    resp.result = *std::move(cached);
    resp.key = resp.result.request_key;
    resp.cache_hit = true;
    record_and_deliver(resp, req.config.cluster.topology.name, arrival);
    return;
  }

  std::shared_ptr<Inflight> entry;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto it = inflight_.find(form.text);
    if (it != inflight_.end()) {
      // Coalescing is exempt from admission control: a piggybacked waiter
      // consumes no worker and no queue slot.
      Waiter w = arrival;
      w.coalesced = true;
      it->second->waiters.push_back(std::move(w));
      return;  // answered by the in-flight computation
    }
    if (cfg_.max_queue != 0 && inflight_.size() >= cfg_.max_queue) {
      shed = true;
    } else {
      entry = std::make_shared<Inflight>();
      entry->request = req;
      entry->form = std::move(form);
      entry->waiters.push_back(arrival);
      inflight_.emplace(entry->form.text, entry);
    }
  }
  if (shed) {
    // Bounded admission: answer immediately with a structured backoff hint
    // instead of queuing without bound. The client retries after
    // retry_after_ms; an unbounded queue would instead convert overload
    // into unbounded latency and memory.
    ServiceResponse resp;
    resp.ok = false;
    resp.kind = "overloaded";
    resp.retry_after_ms = cfg_.retry_after_ms;
    resp.key = form.key;
    std::ostringstream os;
    os << "service overloaded: " << cfg_.max_queue
       << " points already in flight; retry after " << cfg_.retry_after_ms
       << " ms";
    resp.error = os.str();
    record_and_deliver(resp, req.config.cluster.topology.name, arrival);
    return;
  }
  pool_->submit([this, entry] { compute(entry); });
}

bool SimService::all_deadlines_expired(
    const std::shared_ptr<Inflight>& entry) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (const Waiter& w : entry->waiters) {
    if (w.deadline > now) return false;
  }
  return !entry->waiters.empty();
}

void SimService::compute(const std::shared_ptr<Inflight>& entry) {
  ServiceResponse base;
  base.key = entry->form.key;
  const std::string ckpt_file = checkpoint_path(base.key);
  bool resumed = false;
  try {
    CheckpointOptions ckpt;
    ckpt.checkpoint_every = cfg_.checkpoint_every;
    if (ckpt.checkpoint_every == 0 && entry->request.deadline_ms != 0) {
      // No checkpointing configured, but the point still needs chunk
      // boundaries to poll its deadline at (snapshots stay off —
      // on_checkpoint is unset).
      ckpt.checkpoint_every = kDeadlinePollCycles;
    }
    ckpt.should_abort = [this, entry] { return all_deadlines_expired(entry); };

    std::string image;  // must outlive run_point (restore_from borrows it)
    if (!ckpt_file.empty()) {
      if (auto on_disk = read_binary_file(ckpt_file)) {
        // A previous daemon died mid-point. Validate the image fully
        // (magic, CRC, length, key) before trusting it; a torn or foreign
        // file is deleted and the point starts cold.
        try {
          const Snapshot snap = Snapshot::deserialize(*on_disk);
          MEMPOOL_CHECK_MSG(snap.key == base.key,
                            "checkpoint '" << ckpt_file
                                           << "' is for a different point");
          image = *std::move(on_disk);
          ckpt.restore_from = &image;
          resumed = true;
        } catch (const std::exception&) {
          std::error_code ec;
          std::filesystem::remove(ckpt_file, ec);
        }
      }
      ckpt.on_checkpoint = [this, &ckpt_file](uint64_t /*cycle*/,
                                              const std::string& img) {
        if (write_binary_file_atomic(ckpt_file, img)) {
          std::lock_guard<std::mutex> lock(metrics_mu_);
          ++checkpoints_;
        }
      };
    }
    // The sim workers share the host's threads.
    base.result = run_point(entry->request, ckpt, pool_->num_threads());
    base.ok = true;
  } catch (const PointAborted& e) {
    base.ok = false;
    base.kind = "deadline_exceeded";
    std::ostringstream os;
    os << "deadline exceeded (" << entry->request.deadline_ms
       << " ms) at simulated cycle " << e.cycle();
    base.error = os.str();
  } catch (const LivenessError& e) {
    // The point's progress watchdog fired: the simulation is wedged, and
    // the structured stall attribution rides back to the client instead of
    // the connection hanging until a timeout. Not cached, like all errors.
    base.ok = false;
    base.kind = "liveness";
    base.error = e.what();
    base.liveness = e.report();
  } catch (const std::exception& e) {
    // Bad topology/memory params etc.: a structured error response, never a
    // daemon death. Errors are not cached — the CheckError text is cheap to
    // recompute and a cache entry would outlive plugin registration fixes.
    base.ok = false;
    base.kind = "invalid";
    base.error = e.what();
  }
  if (base.ok) {
    cache_.insert(entry->form, base.result);
    if (!ckpt_file.empty()) {
      // The result is durable in the cache; the in-flight image is obsolete.
      std::error_code ec;
      std::filesystem::remove(ckpt_file, ec);
    }
    if (resumed) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++resumed_;
    }
  }

  std::vector<Waiter> waiters;
  {
    // cache_.insert happened before the erase, which narrows (but does not
    // close) the race with a concurrent submit: one that missed the cache
    // before our insert and takes inflight_mu_ after this erase starts a
    // fresh computation. Determinism keeps that correct — the window only
    // costs a redundant recompute of an identical point.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    waiters = std::move(entry->waiters);
    inflight_.erase(entry->form.text);
  }
  const std::string& topology =
      entry->request.config.cluster.topology.name;
  for (const Waiter& w : waiters) record_and_deliver(base, topology, w);
}

void SimService::record_and_deliver(const ServiceResponse& base,
                                    const std::string& topology,
                                    const Waiter& waiter) {
  ServiceResponse resp = base;
  resp.coalesced = waiter.coalesced;
  resp.service_ms = ms_since(waiter.arrival);
  if (resp.ok && std::chrono::steady_clock::now() > waiter.deadline) {
    // The point completed, but past this waiter's budget: the result is
    // cached for the future, the waiter still gets the honest answer that
    // its deadline was missed (a coalesced waiter with a tight budget can
    // expire while the patient owner runs on).
    resp.ok = false;
    resp.kind = "deadline_exceeded";
    resp.error = "deadline exceeded: point completed after the budget";
    resp.result = SimResult{};
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++requests_;
    if (!resp.ok) ++errors_;
    if (resp.kind == "overloaded") ++shed_;
    if (resp.kind == "deadline_exceeded") ++deadline_exceeded_;
    if (resp.coalesced) ++coalesced_;
    service_ms_.add(resp.service_ms);
    service_hist_.add(resp.service_ms);
    (resp.cache_hit ? hit_hist_ : computed_hist_).add(resp.service_ms);
    ++topology_load_[topology];  // lissandra-style per-node load counter
  }
  waiter.done(resp);
}

Json SimService::metrics_json() const {
  Json j = Json::object();
  std::size_t inflight;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight = inflight_.size();
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  j.set("requests", requests_);
  j.set("errors", errors_);
  j.set("coalesced", coalesced_);
  j.set("shed", shed_);
  j.set("deadline_exceeded", deadline_exceeded_);
  j.set("checkpoints", checkpoints_);
  j.set("resumed", resumed_);
  j.set("inflight", static_cast<uint64_t>(inflight));
  j.set("max_queue", static_cast<uint64_t>(cfg_.max_queue));
  j.set("threads", pool_->num_threads());
  j.set("cache", cache_.stats().to_json());
  j.set("cache_size", static_cast<uint64_t>(cache_.size()));
  j.set("cache_capacity", static_cast<uint64_t>(cache_.capacity()));
  Json lat = Json::object();
  lat.set("overall", latency_json(service_ms_, service_hist_));
  // Split distributions share the RunningStat's count with their histogram
  // counts; mean/max per class are derivable but the quantiles are what the
  // dashboards want.
  lat.set("cache_hit_p50", hit_hist_.quantile(0.50));
  lat.set("cache_hit_p99", hit_hist_.quantile(0.99));
  lat.set("computed_p50", computed_hist_.quantile(0.50));
  lat.set("computed_p99", computed_hist_.quantile(0.99));
  j.set("service_ms", std::move(lat));
  Json load = Json::object();
  for (const auto& [name, count] : topology_load_) load.set(name, count);
  j.set("topology_load", std::move(load));
  return j;
}

ServiceResponse SimService::run(const SimRequest& req) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ServiceResponse out;
  submit(req, [&](const ServiceResponse& resp) {
    std::lock_guard<std::mutex> lock(mu);
    out = resp;
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

}  // namespace mempool::serve
