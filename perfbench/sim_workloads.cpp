// The three simulation workloads. Each run repeats one fixed "pass" (a
// traffic point, or the three Fig. 7 kernels) until the timed window is
// used up; every pass is set up afresh, stepped in fixed-size chunks, and
// verified.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "core/system.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/dct.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "pins.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using mempool::Cluster;
using mempool::ClusterConfig;
using mempool::SnitchCore;
using mempool::System;
using mempool::TrafficCounters;
using mempool::TrafficExperimentConfig;
using mempool::TrafficPoint;

// --- TrafficRun ------------------------------------------------------------

TrafficRun::TrafficRun(const TrafficExperimentConfig& cfg)
    : cfg_(cfg), cluster_(cfg.cluster, &imem_), monitor_(cfg.warmup_cycles) {
  monitor_.set_measure_end(cfg.warmup_cycles + cfg.measure_cycles);
}

void TrafficRun::attach_generators() {
  const ClusterConfig& ccfg = cfg_.cluster;
  mempool::TrafficConfig tcfg;
  tcfg.lambda = cfg_.lambda;
  tcfg.p_local_seq = cfg_.p_local_seq;
  tcfg.seed = cfg_.seed;
  tcfg.stop_generation_at = cfg_.warmup_cycles + cfg_.measure_cycles;
  std::vector<mempool::Client*> clients;
  gens_.reserve(ccfg.num_cores());
  for (uint32_t c = 0; c < ccfg.num_cores(); ++c) {
    const auto tile = static_cast<uint16_t>(c / ccfg.cores_per_tile);
    gens_.push_back(std::make_unique<mempool::TrafficGenerator>(
        "gen" + std::to_string(c), static_cast<uint16_t>(c), tile, ccfg,
        &cluster_.layout(), &engine_, tcfg, &monitor_));
    clients.push_back(gens_.back().get());
  }
  cluster_.attach_clients(clients);
}

void TrafficRun::build() { cluster_.build(engine_); }

uint64_t TrafficRun::total_cycles() const {
  return cfg_.warmup_cycles + cfg_.measure_cycles + cfg_.drain_cycles;
}

void TrafficRun::step(uint64_t n) {
  engine_.run(std::min(n, total_cycles() - engine_.cycle()));
}

uint64_t TrafficRun::generated() const {
  uint64_t n = 0;
  for (const auto& g : gens_) n += g->generated();
  return n;
}

uint64_t TrafficRun::completed() const {
  uint64_t n = 0;
  for (const auto& g : gens_) n += g->completed();
  return n;
}

uint64_t TrafficRun::backlogged() const {
  uint64_t n = 0;
  for (const auto& g : gens_) n += g->queue_depth() != 0 ? 1 : 0;
  return n;
}

TrafficPoint TrafficRun::point() const {
  TrafficPoint p;
  p.offered = cfg_.lambda;
  const double window = static_cast<double>(cfg_.measure_cycles);
  const double cores = static_cast<double>(cfg_.cluster.num_cores());
  p.generated = static_cast<double>(monitor_.generated()) / (window * cores);
  p.accepted =
      static_cast<double>(monitor_.completed_in_window()) / (window * cores);
  p.avg_latency = monitor_.avg_latency();
  p.p95_latency = monitor_.p95_latency();
  p.max_latency = monitor_.max_latency();
  p.completed = monitor_.completed();
  return p;
}

TrafficCounters TrafficRun::counters() const {
  const Cluster::FabricStats fs = cluster_.fabric_stats();
  TrafficCounters c;
  c.generated = monitor_.generated();
  c.injected = monitor_.injected();
  c.completed = monitor_.completed();
  c.completed_in_window = monitor_.completed_in_window();
  c.tile_req_traversals = fs.tile_req_traversals;
  c.tile_resp_traversals = fs.tile_resp_traversals;
  c.dir_traversals = fs.dir_traversals;
  c.remote_resp_traversals = fs.remote_resp_traversals;
  c.group_local_traversals = fs.group_local_traversals;
  c.butterfly_traversals = fs.butterfly_traversals;
  c.bank_accesses = fs.bank_accesses;
  c.bank_stall_cycles = fs.bank_stall_cycles;
  c.final_cycle = engine_.cycle();
  return c;
}

// --- configurations ----------------------------------------------------------

TrafficExperimentConfig traffic_config(const std::string& workload,
                                       uint64_t seed) {
  TrafficExperimentConfig cfg;  // 1000 warm-up, 4000 measured, 2000 drain
  cfg.cluster = workload_cluster(workload);
  cfg.lambda = workload == "toph_uniform_heavy" ? 0.33 : 0.05;
  cfg.p_local_seq = 0.0;
  cfg.seed = seed;
  return cfg;
}

ClusterConfig workload_cluster(const std::string& workload) {
  if (workload == "toph2_uniform_light") {
    return ClusterConfig::paper("TopH2", /*scrambling=*/false);
  }
  if (workload == "tophs_kernels") {
    return ClusterConfig::paper("TopH", /*scrambling=*/true);
  }
  if (workload == "serve_mixed") {
    return ClusterConfig::mini("TopH", /*scrambling=*/true);
  }
  return ClusterConfig::paper("TopH", /*scrambling=*/false);
}

// --- correctness gates -----------------------------------------------------

namespace {

void compare(std::vector<std::string>* out, const char* field, double got,
             double want) {
  // Bit-exact: the simulator is deterministic, so any difference is a bug.
  if (got != want) {
    char line[160];
    std::snprintf(line, sizeof line, "%s: pinned %.17g, got %.17g", field,
                  want, got);
    out->push_back(line);
  }
}

void compare(std::vector<std::string>* out, const char* field, uint64_t got,
             uint64_t want) {
  if (got != want) {
    out->push_back(std::string(field) + ": pinned " + std::to_string(want) +
                   ", got " + std::to_string(got));
  }
}

}  // namespace

std::vector<std::string> traffic_mismatches(const TrafficPoint& p,
                                            const TrafficCounters& c,
                                            const TrafficPin& pin) {
  std::vector<std::string> out;
  const TrafficPoint& q = pin.point;
  compare(&out, "offered", p.offered, q.offered);
  compare(&out, "generated", p.generated, q.generated);
  compare(&out, "accepted", p.accepted, q.accepted);
  compare(&out, "avg_latency", p.avg_latency, q.avg_latency);
  compare(&out, "p95_latency", p.p95_latency, q.p95_latency);
  compare(&out, "max_latency", p.max_latency, q.max_latency);
  compare(&out, "completed", p.completed, q.completed);
  const TrafficCounters& d = pin.counters;
  compare(&out, "counters.generated", c.generated, d.generated);
  compare(&out, "counters.injected", c.injected, d.injected);
  compare(&out, "counters.completed", c.completed, d.completed);
  compare(&out, "counters.completed_in_window", c.completed_in_window,
          d.completed_in_window);
  compare(&out, "counters.tile_req_traversals", c.tile_req_traversals,
          d.tile_req_traversals);
  compare(&out, "counters.tile_resp_traversals", c.tile_resp_traversals,
          d.tile_resp_traversals);
  compare(&out, "counters.dir_traversals", c.dir_traversals, d.dir_traversals);
  compare(&out, "counters.remote_resp_traversals", c.remote_resp_traversals,
          d.remote_resp_traversals);
  compare(&out, "counters.group_local_traversals", c.group_local_traversals,
          d.group_local_traversals);
  compare(&out, "counters.butterfly_traversals", c.butterfly_traversals,
          d.butterfly_traversals);
  compare(&out, "counters.bank_accesses", c.bank_accesses, d.bank_accesses);
  compare(&out, "counters.bank_stall_cycles", c.bank_stall_cycles,
          d.bank_stall_cycles);
  compare(&out, "counters.final_cycle", c.final_cycle, d.final_cycle);
  return out;
}

std::vector<std::string> kernel_mismatches(uint64_t cycles,
                                           const SnitchCore::Stats& s,
                                           const KernelPin& pin) {
  std::vector<std::string> out;
  const SnitchCore::Stats& t = pin.stats;
  compare(&out, "cycles", cycles, pin.cycles);
  compare(&out, "stats.instret", s.instret, t.instret);
  compare(&out, "stats.cycles", s.cycles, t.cycles);
  compare(&out, "stats.stall_fetch", s.stall_fetch, t.stall_fetch);
  compare(&out, "stats.stall_raw", s.stall_raw, t.stall_raw);
  compare(&out, "stats.stall_rob", s.stall_rob, t.stall_rob);
  compare(&out, "stats.stall_port", s.stall_port, t.stall_port);
  compare(&out, "stats.stall_ctrl", s.stall_ctrl, t.stall_ctrl);
  compare(&out, "stats.alu", s.alu, t.alu);
  compare(&out, "stats.mul", s.mul, t.mul);
  compare(&out, "stats.div", s.div, t.div);
  compare(&out, "stats.branches", s.branches, t.branches);
  compare(&out, "stats.loads_local", s.loads_local, t.loads_local);
  compare(&out, "stats.loads_remote", s.loads_remote, t.loads_remote);
  compare(&out, "stats.stores_local", s.stores_local, t.stores_local);
  compare(&out, "stats.stores_remote", s.stores_remote, t.stores_remote);
  compare(&out, "stats.amos", s.amos, t.amos);
  compare(&out, "stats.dma_submits", s.dma_submits, t.dma_submits);
  compare(&out, "stats.resp_latency_sum", s.resp_latency_sum,
          t.resp_latency_sum);
  compare(&out, "stats.resp_count", s.resp_count, t.resp_count);
  return out;
}

// --- shared per-layer counts -------------------------------------------------

namespace {

/// Exact work counts summed over everything one pass simulated.
struct WorkCounts {
  uint64_t cycles = 0;
  uint64_t evaluations = 0;
  uint64_t commits = 0;
  Cluster::FabricStats fabric;

  void add(const mempool::Engine& e, const Cluster& c) {
    cycles += e.cycle();
    evaluations += e.evaluations();
    commits += e.commits();
    const Cluster::FabricStats f = c.fabric_stats();
    fabric.tile_req_traversals += f.tile_req_traversals;
    fabric.tile_resp_traversals += f.tile_resp_traversals;
    fabric.group_local_traversals += f.group_local_traversals;
    fabric.butterfly_traversals += f.butterfly_traversals;
    fabric.bank_accesses += f.bank_accesses;
    fabric.bank_stall_cycles += f.bank_stall_cycles;
  }

  /// The exact per-layer metrics, plus sim.ns_per_evaluation over the
  /// whole timed window (@p run_s across @p passes identical passes).
  void report(double run_s, uint64_t passes, Outcome* out) const {
    const auto per = [](uint64_t a, uint64_t b) {
      return b != 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    out->values["sim.evaluations_per_cycle"] = per(evaluations, cycles);
    out->values["sim.commits_per_cycle"] = per(commits, cycles);
    out->values["sim.ns_per_evaluation"] =
        run_s * 1e9 / static_cast<double>(evaluations * passes);
    out->values["noc.butterfly_traversals_per_cycle"] =
        per(fabric.butterfly_traversals, cycles);
    out->values["noc.group_local_traversals_per_cycle"] =
        per(fabric.group_local_traversals, cycles);
    out->values["noc.tile_traversals_per_cycle"] = per(
        fabric.tile_req_traversals + fabric.tile_resp_traversals, cycles);
    out->values["mem.bank_accesses_per_cycle"] =
        per(fabric.bank_accesses, cycles);
    out->values["mem.bank_stall_cycles_per_access"] =
        per(fabric.bank_stall_cycles, fabric.bank_accesses);
  }
};

double ms_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e3;
}

void fail_on_mismatch(const std::string& what,
                      const std::vector<std::string>& bad, Outcome* out) {
  if (bad.empty()) return;
  std::string msg = what + ": simulated outputs differ from the pins:";
  for (const std::string& b : bad) msg += "\n  " + b;
  out->fail(msg);
}

}  // namespace

// --- traffic workloads -------------------------------------------------------

Outcome run_traffic_workload(const Options& opt, Tracer* tracer) {
  const TrafficExperimentConfig cfg = traffic_config(opt.workload, opt.seed);
  // 1400 stepping calls per pass (~0.3-0.7 ms each), so that each pass's
  // p99 has 14 calls beyond it.
  const uint64_t chunk = 5;
  const TrafficPin* pin = nullptr;
  if (opt.seed == kDefaultSeed) {
    pin = opt.workload == "toph_uniform_heavy" ? &kTophUniformHeavyPin
                                               : &kToph2UniformLightPin;
  }

  Outcome out;
  PassTracing tracing(tracer);
  ChunkLog log;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  WorkCounts work;
  TrafficCounters counters;
  uint64_t passes = 0;
  const Clock::time_point deadline = deadline_after(opt.seconds);
  do {
    Tracer* const tr = tracing.for_pass(passes);
    Scope pass_span(tr, "bench.pass");
    const Clock::time_point t0 = Clock::now();
    std::optional<TrafficRun> run;
    double build = 0;
    {
      Scope s(tr, "core.cluster_construct");
      const Clock::time_point a = Clock::now();
      run.emplace(cfg);
      build += ms_since(a);
    }
    {
      Scope s(tr, "traffic.attach_generators");
      run->attach_generators();
    }
    {
      Scope s(tr, "core.cluster_build");
      const Clock::time_point a = Clock::now();
      run->build();
      build += ms_since(a);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    build_ms.push_back(build);

    while (!run->done()) {
      const uint64_t c0 = run->engine().cycle();
      const uint64_t o0 = run->completed();
      const Clock::time_point a = Clock::now();
      {
        Scope s(tr, "sim.engine_run");
        run->step(chunk);
      }
      log.add(seconds_between(a, Clock::now()), run->engine().cycle() - c0,
              run->completed() - o0);
    }
    log.end_pass();
    tracing.record(passes, log.pass_cycles_per_s.back(),
                   log.pass_chunks_per_s.back());

    Scope check_span(tr, "bench.check");
    ++out.attempted;
    ++passes;
    const TrafficPoint p = run->point();
    counters = run->counters();
    // Packet conservation holds for every seed: after the drain every
    // generated request has been answered and nothing is left in flight.
    if (run->generated() != run->completed() || run->backlogged() != 0 ||
        !run->cluster().fabric_idle()) {
      out.fail(opt.workload + ": packets not conserved: generated " +
               std::to_string(run->generated()) + ", completed " +
               std::to_string(run->completed()));
    } else if (pin != nullptr) {
      fail_on_mismatch(opt.workload, traffic_mismatches(p, counters, *pin),
                       &out);
    }
    if (passes == 1) {
      work.add(run->engine(), run->cluster());
      char line[200];
      std::snprintf(line, sizeof line,
                    "modelled: accepted %.4f req/core/cycle, mean latency "
                    "%.4f cycles, p95 %.1f, max %.0f",
                    p.accepted, p.avg_latency, p.p95_latency, p.max_latency);
      out.notes.push_back(line);
    }
  } while (Clock::now() < deadline);

  log.report(&out);
  work.report(log.run_s, passes, &out);
  tracing.report(&out);
  out.values["setup_s"] = median(setup_s);
  out.values["core.cluster_build_ms"] = median(build_ms);
  out.values["traffic.injected_per_generated"] =
      counters.generated != 0 ? static_cast<double>(counters.injected) /
                                    static_cast<double>(counters.generated)
                              : 0.0;
  out.notes.push_back(std::to_string(passes) + " traffic points of " +
                      std::to_string(cfg.warmup_cycles + cfg.measure_cycles +
                                     cfg.drain_cycles) +
                      " cycles each, set up and verified one by one");
  return out;
}

// --- tophs_kernels -----------------------------------------------------------

namespace {

struct KernelCase {
  const char* name;
  mempool::kernels::KernelProgram (*build)(const ClusterConfig&, uint64_t);
};

mempool::kernels::KernelProgram build_matmul64(const ClusterConfig& c,
                                               uint64_t seed) {
  return mempool::kernels::build_matmul(c, 64, seed);
}
mempool::kernels::KernelProgram build_conv2d256(const ClusterConfig& c,
                                                uint64_t seed) {
  return mempool::kernels::build_conv2d(c, 256, seed);
}
mempool::kernels::KernelProgram build_dct(const ClusterConfig& c,
                                          uint64_t seed) {
  return mempool::kernels::build_dct(c, seed);
}

// Kernel k's data seed is seed + 41 + k, so the default seed reproduces the
// kernels' own defaults (42, 43, 44) and the Fig. 7 cycle counts.
constexpr KernelCase kKernels[] = {
    {"matmul", build_matmul64},
    {"2dconv", build_conv2d256},
    {"dct", build_dct},
};

constexpr uint64_t kKernelCycleLimit = 2'000'000;

}  // namespace

Outcome run_kernels_workload(const Options& opt, Tracer* tracer) {
  const ClusterConfig cfg = workload_cluster(opt.workload);
  // ~1070 stepping calls per pass (~0.6 ms each), so that each pass's p99
  // has 10 calls beyond it.
  const uint64_t chunk = 20;
  Outcome out;
  PassTracing tracing(tracer);
  ChunkLog log;
  std::vector<double> setup_s, system_ms, build_ms, load_ms, check_ms;
  WorkCounts work;
  uint64_t instret = 0;
  uint64_t kernel_cycles = 0;
  uint64_t passes = 0;
  const Clock::time_point deadline = deadline_after(opt.seconds);
  do {
    Tracer* const tr = tracing.for_pass(passes);
    Scope pass_span(tr, "bench.pass");
    ++passes;
    double setup = 0, sys_t = 0, build_t = 0, load_t = 0, check_t = 0;
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      const KernelCase& kc = kKernels[k];
      const Clock::time_point t0 = Clock::now();
      std::optional<System> sys;
      {
        Scope s(tr, "core.system_construct");
        sys.emplace(cfg);
      }
      const Clock::time_point t1 = Clock::now();
      mempool::kernels::KernelProgram kp;
      {
        Scope s(tr, "kernels.build");
        kp = kc.build(cfg, opt.seed + 41 + k);
      }
      const Clock::time_point t2 = Clock::now();
      {
        Scope s(tr, "isa.load_program");
        sys->load_program(kp.image);
      }
      const Clock::time_point t3 = Clock::now();
      {
        Scope s(tr, "kernels.init");
        if (kp.init) kp.init(*sys);
      }
      const Clock::time_point t4 = Clock::now();
      setup += seconds_between(t0, t4);
      sys_t += seconds_between(t0, t1) * 1e3;
      build_t += seconds_between(t1, t2) * 1e3;
      load_t += seconds_between(t2, t3) * 1e3;

      uint64_t cycles = 0;
      bool halted = false;
      while (!halted && cycles < kKernelCycleLimit) {
        const uint64_t i0 = sys->aggregate_core_stats().instret;
        const Clock::time_point a = Clock::now();
        System::RunResult r;
        {
          Scope s(tr, "sim.system_run");
          r = sys->run(chunk);
        }
        const double dt = seconds_between(a, Clock::now());
        log.add(dt, r.cycles, sys->aggregate_core_stats().instret - i0);
        cycles += r.cycles;
        halted = r.all_halted;
      }

      ++out.attempted;
      const Clock::time_point c0 = Clock::now();
      std::string err;
      bool golden = false;
      {
        Scope s(tr, "kernels.check");
        golden = halted && (!kp.check || kp.check(*sys, &err));
      }
      check_t += ms_since(c0);
      Scope check_span(tr, "bench.check");
      const SnitchCore::Stats stats = sys->aggregate_core_stats();
      if (!halted) {
        out.fail(std::string(kc.name) + " did not finish within " +
                 std::to_string(kKernelCycleLimit) + " cycles");
      } else if (!golden) {
        out.fail(std::string(kc.name) + " failed its golden check: " + err);
      } else if (opt.seed == kDefaultSeed) {
        fail_on_mismatch(
            kc.name, kernel_mismatches(cycles, stats, kKernelPins[k]), &out);
      }
      if (passes == 1) {
        work.add(sys->engine(), sys->cluster());
        instret += stats.instret;
        kernel_cycles += cycles;
        out.notes.push_back(std::string(kc.name) + ": " +
                            std::to_string(cycles) + " cycles, " +
                            std::to_string(stats.instret) + " instructions");
      }
    }
    log.end_pass();
    tracing.record(passes - 1, log.pass_cycles_per_s.back(),
                   log.pass_chunks_per_s.back());
    setup_s.push_back(setup);
    system_ms.push_back(sys_t);
    build_ms.push_back(build_t);
    load_ms.push_back(load_t);
    check_ms.push_back(check_t);
  } while (Clock::now() < deadline);

  log.report(&out);
  work.report(log.run_s, passes, &out);
  tracing.report(&out);
  out.values["setup_s"] = median(setup_s);
  out.values["core.cluster_build_ms"] = median(system_ms);
  out.values["core.instructions_retired"] = static_cast<double>(instret);
  out.values["core.sim_ipc"] =
      static_cast<double>(instret) /
      static_cast<double>(kernel_cycles * cfg.num_cores());
  out.values["core.ns_per_instruction"] =
      log.run_s * 1e9 / static_cast<double>(instret * passes);
  out.values["isa.load_program_ms"] = median(load_ms);
  out.values["kernels.build_ms"] = median(build_ms);
  out.values["kernels.check_ms"] = median(check_ms);
  out.values["kernels.sim_cycles"] = static_cast<double>(kernel_cycles);
  out.notes.push_back(std::to_string(passes) +
                      " passes of matmul 64, 2dconv 256 and dct, each set up, "
                      "run and verified");
  return out;
}

}  // namespace perfbench
