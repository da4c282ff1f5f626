#pragma once
// Internal pieces shared by the workloads and the self-test: the traffic
// point assembled from public parts, the workload configurations, and the
// correctness gates that compare simulated outputs with pinned values.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/snitch.hpp"
#include "mem/imem.hpp"
#include "noc/monitor.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "traffic/experiment.hpp"
#include "traffic/generator.hpp"

namespace perfbench {

/// One traffic point built from the same public pieces run_traffic_point
/// uses (Engine, Cluster, TrafficGenerator, LatencyMonitor) on the default
/// active engine, so that construction, build and each stepping call can be
/// timed apart. The self-test holds it equal to run_traffic_point.
class TrafficRun {
 public:
  /// Constructs the engine and the cluster.
  explicit TrafficRun(const mempool::TrafficExperimentConfig& cfg);
  TrafficRun(const TrafficRun&) = delete;
  TrafficRun& operator=(const TrafficRun&) = delete;

  /// One generator per core, attached to the cluster.
  void attach_generators();
  /// Cluster::build: every component registered with the engine.
  void build();

  uint64_t total_cycles() const;
  bool done() const { return engine_.cycle() >= total_cycles(); }
  /// Advance at most @p n cycles, never past the end of the point.
  void step(uint64_t n);

  /// Requests the generators created / got answered so far.
  uint64_t generated() const;
  uint64_t completed() const;
  /// Generators whose source queue still holds requests.
  uint64_t backlogged() const;

  mempool::TrafficPoint point() const;
  mempool::TrafficCounters counters() const;
  const mempool::Engine& engine() const { return engine_; }
  const mempool::Cluster& cluster() const { return cluster_; }

 private:
  mempool::TrafficExperimentConfig cfg_;
  mempool::InstrMem imem_{4096};  // unused by generators, required by the I$
  mempool::Engine engine_;
  mempool::Cluster cluster_;
  mempool::LatencyMonitor monitor_;
  std::vector<std::unique_ptr<mempool::TrafficGenerator>> gens_;
};

/// The traffic point of toph_uniform_heavy / toph2_uniform_light.
mempool::TrafficExperimentConfig traffic_config(const std::string& workload,
                                                uint64_t seed);

/// Pinned simulated outputs of one traffic point at the default seed.
struct TrafficPin {
  mempool::TrafficPoint point;
  mempool::TrafficCounters counters;
};

/// Names (with expected/observed values) of every field that differs.
std::vector<std::string> traffic_mismatches(const mempool::TrafficPoint& p,
                                            const mempool::TrafficCounters& c,
                                            const TrafficPin& pin);

/// Pinned outputs of one Fig. 7 kernel at the default seed.
struct KernelPin {
  const char* name;
  uint64_t cycles;
  mempool::SnitchCore::Stats stats;
};

std::vector<std::string> kernel_mismatches(
    uint64_t cycles, const mempool::SnitchCore::Stats& stats,
    const KernelPin& pin);

/// Empty when @p resp is an ok answer for @p key whose result is
/// bit-identical to both @p first (the first answer for the key) and
/// @p local (a local run_point); otherwise what is wrong.
std::string reply_mismatch(const mempool::serve::ServiceResponse& resp,
                           const std::string& key,
                           const mempool::serve::SimResult& first,
                           const mempool::serve::SimResult& local);

}  // namespace perfbench
