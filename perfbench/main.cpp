// mempool_perfbench: the repository benchmark. One invocation runs one
// workload for a timed window, verifies every simulated output, prints each
// metric by name with its unit, and ends with one JSON line:
//
//   mempool_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--out-dir DIR]
//   mempool_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes over the window, reports the per-layer metrics plus the
// tracing overhead (the median difference within each untraced/traced pair),
// writes the spans as Chrome trace-event JSON to DIR and prints each layer's
// self time. See README.md.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
  bool exact;  ///< A modelled count: zero tolerance, identical on every host.
};

// Must match BENCHMARK.json. A metric a workload does not exercise reads 0
// in the per-layer set (end-to-end metrics are defined on every workload).
constexpr MetricDef kMetrics[] = {
    {"sim_cycles_per_s", "1/s", true, false},
    {"sim_instructions_per_s", "1/s", true, false},
    {"setup_s", "s", true, false},
    {"peak_rss_mb", "MB", true, false},
    {"request_ms_p50", "ms", true, false},
    {"request_ms_p99", "ms", true, false},
    {"requests_per_s", "1/s", true, false},

    {"sim.evaluations_per_cycle", "count", false, true},
    {"sim.commits_per_cycle", "count", false, true},
    {"sim.ns_per_evaluation", "ns", false, false},
    {"sim.run_chunk_ms_p50", "ms", false, false},
    {"sim.run_chunk_ms_p99", "ms", false, false},
    {"noc.butterfly_traversals_per_cycle", "count", false, true},
    {"noc.group_local_traversals_per_cycle", "count", false, true},
    {"noc.tile_traversals_per_cycle", "count", false, true},
    {"noc.butterfly.ns_per_eval", "ns", false, false},
    {"noc.xbar.ns_per_eval", "ns", false, false},
    {"mem.bank_accesses_per_cycle", "count", false, true},
    {"mem.bank_stall_cycles_per_access", "count", false, true},
    {"traffic.injected_per_generated", "count", false, true},
    {"core.cluster_build_ms", "ms", false, false},
    {"core.instructions_retired", "count", false, true},
    {"core.sim_ipc", "count", false, true},
    {"core.ns_per_instruction", "ns", false, false},
    {"isa.load_program_ms", "ms", false, false},
    {"kernels.build_ms", "ms", false, false},
    {"kernels.check_ms", "ms", false, false},
    {"kernels.sim_cycles", "count", false, true},
    {"serve.key_us", "us", false, false},
    {"serve.hit_us_p50", "us", false, false},
    {"serve.hit_us_p99", "us", false, false},
    {"serve.miss_ms_p50", "ms", false, false},
    {"serve.service_ms_p50", "ms", false, false},
    {"serve.transport_us_p50", "us", false, false},
    {"serve.hit_rate", "ratio", false, false},
    {"serve.coalesced_frac", "ratio", false, false},
    {"trace.overhead_cycles_per_s", "1/s", false, false},
    {"trace.overhead_requests_per_s", "1/s", false, false},
};

constexpr const char* kWorkloads[] = {"toph_uniform_heavy",
                                      "toph2_uniform_light", "tophs_kernels",
                                      "serve_mixed"};

Outcome run_workload(const Options& opt, Tracer* tracer) {
  if (opt.workload == "tophs_kernels") return run_kernels_workload(opt, tracer);
  if (opt.workload == "serve_mixed") return run_serve_workload(opt, tracer);
  return run_traffic_workload(opt, tracer);
}

void print_metrics(const Outcome& o, bool end_to_end) {
  for (const MetricDef& m : kMetrics) {
    if (m.end_to_end != end_to_end) continue;
    const auto it = o.values.find(m.name);
    const double v = it != o.values.end() ? it->second : 0.0;
    std::printf("  %-38s %16.6g %-6s%s\n", m.name, v, m.unit,
                m.exact ? "  exact (zero tolerance)" : "");
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n       %s --self-test\nworkloads:",
               argv0, argv0);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Prints failed_frac and the closing JSON line with the end-to-end or the
/// per-layer metrics; the exit code says whether every check passed.
int finish(const Outcome& result, bool end_to_end) {
  const bool correct = result.failed == 0;
  std::printf("failed_frac %.6g (%llu failed of %llu operations attempted)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  mempool::Json metrics = mempool::Json::object();
  for (const MetricDef& m : kMetrics) {
    if (m.end_to_end != end_to_end) continue;
    const auto it = result.values.find(m.name);
    mempool::Json v = mempool::Json::object();
    v.set("value", it != result.values.end() ? it->second : 0.0);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  mempool::Json line = mempool::Json::object();
  line.set("correct", correct);
  line.set("attempted", result.attempted);
  line.set("failed", result.failed);
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}

int run(int argc, char** argv) {
  Options opt;
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      trace = std::stoi(value);
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (self_test) return run_self_test() == 0 ? 0 : 1;
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known || opt.seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }

  std::printf("perfbench: workload %s, seed %llu, %g s window, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace);
  if (trace == 0) {
    Outcome result = run_workload(opt, nullptr);
    result.values["peak_rss_mb"] = peak_rss_mb();
    for (const std::string& n : result.notes) std::printf("  %s\n", n.c_str());
    std::printf("end-to-end:\n");
    print_metrics(result, true);
    return finish(result, true);
  }

  // The traced run alternates untraced and traced passes (PassTracing).
  Tracer tracer;
  Outcome result = run_workload(opt, &tracer);
  run_noc_probe(workload_cluster(opt.workload), opt.seed, &tracer, &result);
  for (const std::string& n : result.notes) std::printf("  %s\n", n.c_str());
  std::printf("per-layer (%zu spans):\n", tracer.size());
  print_metrics(result, false);
  std::printf("self time by layer (traced passes):\n");
  tracer.print_self_times(std::cout);
  std::cout.flush();
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (!tracer.write_chrome_json(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trace: %s\n", path.c_str());
  return finish(result, false);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
