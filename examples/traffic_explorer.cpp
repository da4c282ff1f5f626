// Network design exploration: sweep any topology / load / locality point
// from the command line and print throughput + latency — the workflow an
// interconnect architect would use this library for.
//
//   $ ./traffic_explorer [--threads N] [--json PATH] [topology] [lambda] [p_local]
//   $ ./traffic_explorer TopH 0.33 0.25
//   $ ./traffic_explorer --topology TopH2 0.1        # any registered plugin
//   $ ./traffic_explorer --list-topologies
//
// The topology is any name in the FabricRegistry (positional or --topology);
// an unknown name fails with the list of registered plugins. Without an
// explicit lambda the full load sweep runs on the parallel runner, sharded
// across host cores.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/report.hpp"
#include "runner/bench_cli.hpp"
#include "runner/results.hpp"
#include "runner/runner.hpp"

using namespace mempool;
using namespace mempool::runner;

namespace {

double parse_number_or_exit(const char* arg, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0') {
    std::fprintf(stderr, "expected a numeric %s, got '%s'\n", what, arg);
    std::exit(2);
  }
  return v;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  BenchOptions opts = parse_bench_options(&argc, argv, "traffic_explorer",
                                          /*accepts_topology=*/true,
                                          /*accepts_memory=*/true,
                                          /*accepts_checkpoint=*/true);

  // parse_bench_options leaves unrecognized flags in argv. No positional
  // starts with "--", so such a leftover is named as the stray argument it
  // is instead of being read as a topology or a number.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      reject_leftover_args(argc, argv, opts.bench_name, i);
    }
  }

  TopologySpec topo = "TopH";
  int pos = 1;  // next positional argument
  if (!opts.topology.empty()) {
    topo = TopologySpec{opts.topology};
  } else if (argc > pos) {
    topo = parse_topology_or_exit(argv[pos++]);
  }
  const double lambda =
      argc > pos ? parse_number_or_exit(argv[pos++], "lambda") : -1.0;
  const double p_local =
      argc > pos ? parse_number_or_exit(argv[pos++], "p_local") : 0.0;
  reject_leftover_args(argc, argv, opts.bench_name, pos);

  TrafficExperimentConfig e;
  e.cluster = ClusterConfig::paper(topo, p_local > 0.0);
  if (!opts.memory.empty()) e.cluster.memory = MemorySpec{opts.memory};
  e.cluster.validate();
  e.stall_horizon = opts.stall_horizon;
  e.p_local_seq = p_local;

  if (opts.wants_checkpointing() && lambda < 0) {
    std::fprintf(stderr,
                 "traffic_explorer: --checkpoint-every/--restore run a single "
                 "point — give an explicit lambda\n");
    return 2;
  }

  if (lambda >= 0) {
    e.lambda = lambda;
    if (opts.wants_checkpointing()) {
      // Crash-safe single point: periodic mempool.ckpt.v1 images, optional
      // resume; the finished point is bit-identical to an uninterrupted run.
      const TrafficPoint p = run_checkpointed_point(opts, e);
      std::printf("%s  offered=%.3f p_local=%.2f -> accepted=%.3f "
                  "avg_lat=%.2f p95=%.1f max=%.0f cycles\n",
                  topo.name.c_str(), p.offered, p_local, p.accepted,
                  p.avg_latency, p.p95_latency, p.max_latency);
      return 0;
    }
    // One point, still through the runner so --json works here too; a single
    // worker, so no idle threads spin up for one task.
    opts.progress = false;
    opts.threads = 1;
    const SweepResult res = run_points({e}, opts.runner());
    const TrafficPoint& p = res.points[0];
    std::printf("%s  offered=%.3f p_local=%.2f -> accepted=%.3f "
                "avg_lat=%.2f p95=%.1f max=%.0f cycles\n",
                topo.name.c_str(), p.offered, p_local, p.accepted,
                p.avg_latency, p.p95_latency, p.max_latency);
    Json results = Json::object();
    results.set("sweep", sweep_to_json(res));
    write_bench_results(opts, res.threads, res.wall_seconds,
                        std::move(results));
    return 0;
  }

  // No lambda given: run a full sweep on the parallel runner.
  print_banner(std::cout, "load sweep on " + topo.name);

  SweepSpec spec;
  spec.base = e;
  spec.lambdas = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50};

  const SweepResult res = run_sweep(spec, opts.runner());

  Table t({"offered", "accepted", "avg latency", "p95", "max"});
  for (std::size_t i = 0; i < spec.lambdas.size(); ++i) {
    const TrafficPoint& p = res.points[i];
    t.add_row({Table::num(spec.lambdas[i], 2), Table::num(p.accepted, 3),
               Table::num(p.avg_latency, 2), Table::num(p.p95_latency, 1),
               Table::num(p.max_latency, 0)});
  }
  t.print(std::cout);

  Json results = Json::object();
  results.set("sweep", sweep_to_json(res));
  write_bench_results(opts, res.threads, res.wall_seconds, std::move(results));
  return 0;
}

int main(int argc, char** argv) {
  // A watchdog abort (--stall-horizon) exits 3 with the stall report on
  // stderr instead of std::terminate.
  return guarded_bench_main("traffic_explorer",
                            [&] { return bench_main(argc, argv); });
}
