// The benchmark's own test (mempool_perfbench --self-test, also registered
// with CTest): timing the simulator from public pieces must measure the same
// program, and every correctness gate must catch a perturbed pinned output.

#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "core/system.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/kernel.hpp"
#include "pins.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// The hand-assembled point, stepped in chunks, against the monolithic
/// run_traffic_point of the same config.
void check_assembled_point(const mempool::TrafficExperimentConfig& cfg,
                           const std::string& label, const TrafficPin* pin) {
  TrafficRun run(cfg);
  run.attach_generators();
  run.build();
  while (!run.done()) run.step(100);
  mempool::TrafficCounters want_counters;
  const mempool::TrafficPoint want =
      mempool::run_traffic_point(cfg, &want_counters);
  const mempool::TrafficPoint got = run.point();
  const mempool::TrafficCounters got_counters = run.counters();
  expect(got == want && got_counters == want_counters,
         label + ": assembled point equals run_traffic_point");
  if (pin == nullptr) return;

  expect(traffic_mismatches(got, got_counters, *pin).empty(),
         label + ": outputs match the pins");
  TrafficPin bad = *pin;
  ++bad.counters.butterfly_traversals;
  expect(!traffic_mismatches(got, got_counters, bad).empty(),
         label + ": gate catches a perturbed butterfly count");
  bad = *pin;
  bad.point.avg_latency = std::nextafter(bad.point.avg_latency, 1e9);
  expect(!traffic_mismatches(got, got_counters, bad).empty(),
         label + ": gate catches a mean latency one ulp off");
}

void check_kernel_gate() {
  // 2dconv is the shortest pinned kernel.
  const mempool::ClusterConfig cfg = workload_cluster("tophs_kernels");
  mempool::System sys(cfg);
  const mempool::kernels::KernelProgram kp =
      mempool::kernels::build_conv2d(cfg, 256, kDefaultSeed + 42);
  const uint64_t cycles = mempool::kernels::run_kernel(sys, kp, 2'000'000);
  const mempool::SnitchCore::Stats stats = sys.aggregate_core_stats();
  const KernelPin& pin = kKernelPins[1];
  expect(kernel_mismatches(cycles, stats, pin).empty(),
         "2dconv: cycles and core stats match the pins");
  KernelPin bad = pin;
  ++bad.cycles;
  expect(!kernel_mismatches(cycles, stats, bad).empty(),
         "2dconv: gate catches a perturbed cycle count");
  bad = pin;
  ++bad.stats.loads_remote;
  expect(!kernel_mismatches(cycles, stats, bad).empty(),
         "2dconv: gate catches a perturbed core stat");
}

void check_reply_gate() {
  mempool::TrafficExperimentConfig cfg;
  cfg.cluster = workload_cluster("serve_mixed");
  cfg.lambda = 0.1;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 100;
  const mempool::serve::SimRequest req =
      mempool::serve::SimRequest::from_config(cfg);
  mempool::serve::ServiceConfig scfg;
  scfg.threads = 1;
  mempool::serve::SimService service(scfg);
  const mempool::serve::ServiceResponse resp = service.run(req);
  const mempool::serve::SimResult local = mempool::serve::run_point(req);
  expect(reply_mismatch(resp, req.key(), local, local).empty(),
         "serve: a correct reply passes");
  mempool::serve::SimResult bad = local;
  ++bad.point.completed;
  expect(!reply_mismatch(resp, req.key(), bad, local).empty(),
         "serve: gate catches a reply that differs from the first answer");
  expect(!reply_mismatch(resp, req.key(), local, bad).empty(),
         "serve: gate catches a reply that differs from run_point");
  mempool::serve::ServiceResponse err = resp;
  err.ok = false;
  expect(!reply_mismatch(err, req.key(), local, local).empty(),
         "serve: gate catches an error reply");
}

/// The end-to-end estimator: each position keeps its fastest time.
void check_best_times() {
  BestTimes best;
  for (double t : {3.0, 1.0, 4.0}) best.add(t);
  best.end_pass();
  for (double t : {2.0, 5.0, 1.0}) best.add(t);
  best.end_pass();
  expect(best.size() == 3 && best.total_ms() == 4.0 &&
             best.quantile(0.0) == 1.0 && best.quantile(1.0) == 2.0,
         "best times keep each position's minimum over the passes");
}

}  // namespace

int run_self_test() {
  std::printf("perfbench self-test\n");
  check_assembled_point(traffic_config("toph_uniform_heavy", kDefaultSeed),
                        "toph_uniform_heavy", &kTophUniformHeavyPin);
  check_assembled_point(traffic_config("toph2_uniform_light", kDefaultSeed),
                        "toph2_uniform_light", &kToph2UniformLightPin);
  check_assembled_point(traffic_config("toph_uniform_heavy", 7),
                        "toph_uniform_heavy seed 7", nullptr);
  check_kernel_gate();
  check_reply_gate();
  check_best_times();
  std::printf("%d failed\n", g_failures);
  return g_failures;
}

}  // namespace perfbench
