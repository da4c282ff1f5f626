#include "runner/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "runner/parallel.hpp"
#include "runner/thread_pool.hpp"
#include "serve/request.hpp"

namespace mempool::runner {

SweepResult run_points(const std::vector<TrafficExperimentConfig>& configs,
                       const RunnerOptions& opts) {
  SweepResult result;
  result.configs = configs;

  ThreadPool pool(opts.threads);
  result.threads = pool.num_threads();

  // The points that run at once share the host's threads (plan_engine).
  const auto concurrent = static_cast<unsigned>(
      std::min<std::size_t>(pool.num_threads(), configs.size()));

  const auto t0 = std::chrono::steady_clock::now();
  // Batch execution goes through the same serve::run_point entry the
  // simulation server uses, so CLI sweeps and served requests are one code
  // path (and provably bit-identical).
  result.points = run_indexed(
      pool, configs.size(),
      [&](std::size_t i) {
        return serve::run_point(
                   serve::SimRequest::from_config(result.configs[i]), {},
                   concurrent)
            .point;
      },
      opts.progress ? std::function<void(std::size_t)>([](std::size_t) {
        std::fputc('.', stderr);
        std::fflush(stderr);
      })
                    : nullptr);
  const auto t1 = std::chrono::steady_clock::now();
  if (opts.progress) std::fputc('\n', stderr);

  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

SweepResult run_sweep(const SweepSpec& spec, const RunnerOptions& opts) {
  return run_points(spec.expand(), opts);
}

}  // namespace mempool::runner
