#pragma once
// Shared pieces of the repository benchmark: options, the per-run outcome,
// timing and summary helpers, and the workload entry points. Everything here
// calls the simulator only through its public headers; nothing is traced
// inside src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster_config.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// The seed whose simulated outputs are pinned (pins.hpp). Any other seed
/// falls back to the checks that need no pinned value.
inline constexpr uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;        ///< Length of the timed window.
  std::string out_dir = ".";  ///< Socket and trace files go here.
};

/// What one workload run hands back: the tally of verified operations and
/// every metric it measured, by catalogue name (main.cpp). A metric a
/// workload does not touch is simply absent.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;  ///< Human-readable lines (sample counts).

  void fail(const std::string& what);
};

/// Sorted-sample quantile with linear interpolation (q in [0, 1]).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Every pass of a run repeats the same timed operations in the same order
/// (the simulator is deterministic), so operation i of one pass does the same
/// work as operation i of any other. BestTimes keeps, per position, the
/// fastest time any pass took. The host's contention comes and goes over
/// seconds; over a run of many passes each position sees a quiet moment, so
/// these best times vary far less from run to run than a median does
/// (README.md, "Host noise and bounds").
class BestTimes {
 public:
  void add(double ms) { pass_.push_back(ms); }
  /// Folds the pass into the per-position minima; every pass must time the
  /// same number of operations.
  void end_pass();
  /// Sum of the best times: one pass with every operation at its fastest.
  double total_ms() const;
  /// Quantile over positions of the best times.
  double quantile(double q) const { return perfbench::quantile(best_, q); }
  std::size_t size() const { return best_.size(); }

 private:
  std::vector<double> pass_;
  std::vector<double> best_;
};

/// Splits a timed window into stepping calls ("chunks") grouped into passes
/// of identical work. A chunk is one Engine::run / System::run of a fixed
/// number of cycles: the unit the simulation workloads report as a
/// "request".
struct ChunkLog {
  std::vector<double> ms;  ///< Host time per chunk, whole window.
  std::vector<double> pass_cycles_per_s;  ///< Each pass's own rates.
  std::vector<double> pass_chunks_per_s;
  double run_s = 0;  ///< Sum of chunk times.
  BestTimes best;    ///< Per chunk position, over the passes.

  void add(double seconds, uint64_t chunk_cycles, uint64_t chunk_ops);
  void end_pass();
  /// From the best times: sim_cycles_per_s, sim_instructions_per_s,
  /// requests_per_s, request_ms_p50/p99. From every chunk of the window:
  /// sim.run_chunk_ms_p50/p99.
  void report(Outcome* out) const;

 private:
  double pass_s_ = 0;
  uint64_t pass_cycles_ = 0;
  uint64_t pass_ops_ = 0;
  uint64_t pass_chunks_ = 0;
  uint64_t cycles_per_pass_ = 0;
  uint64_t ops_per_pass_ = 0;
};

/// The traced run alternates untraced and traced passes inside one window:
/// even passes run without spans, odd passes with them. The host's speed
/// drifts slowly, so the two passes of a pair see nearly the same host, and
/// the median of the per-pair rate differences is the tracing overhead.
class PassTracing {
 public:
  explicit PassTracing(Tracer* tracer) : tracer_(tracer) {}

  /// The tracer for pass @p pass (counted from 0); null on untraced passes.
  Tracer* for_pass(uint64_t pass) const {
    return tracer_ != nullptr && pass % 2 == 1 ? tracer_ : nullptr;
  }
  /// Pass @p pass's sim_cycles_per_s and requests_per_s.
  void record(uint64_t pass, double cycles_per_s, double requests_per_s);
  /// trace.overhead_cycles_per_s and trace.overhead_requests_per_s, in a
  /// traced run only.
  void report(Outcome* out) const;

 private:
  Tracer* tracer_;
  double untraced_cycles_ = 0;
  double untraced_requests_ = 0;
  std::vector<double> cycles_diff_;
  std::vector<double> requests_diff_;
};

// --- workloads ---------------------------------------------------------------

/// toph_uniform_heavy / toph2_uniform_light.
Outcome run_traffic_workload(const Options& opt, Tracer* tracer);
/// tophs_kernels.
Outcome run_kernels_workload(const Options& opt, Tracer* tracer);
/// serve_mixed.
Outcome run_serve_workload(const Options& opt, Tracer* tracer);

/// The cluster configuration a workload simulates (the noc probe's shape).
mempool::ClusterConfig workload_cluster(const std::string& workload);

/// Layer probe: ButterflyNet::evaluate and XbarSwitch::evaluate called
/// directly at @p cfg's fabric shapes with seeded saturated input. Sets
/// noc.butterfly.ns_per_eval and noc.xbar.ns_per_eval.
void run_noc_probe(const mempool::ClusterConfig& cfg, uint64_t seed,
                   Tracer* tracer, Outcome* out);

/// The benchmark's own test: the hand-assembled traffic point equals
/// run_traffic_point, and every correctness gate reports a deliberately
/// perturbed pinned output. Returns the number of failed checks.
int run_self_test();

}  // namespace perfbench
