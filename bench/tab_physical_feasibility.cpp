// T6 (Sections VI-B/C): physical feasibility of every physically modeled
// topology from the analytic floorplan/wiring model — total wiring, centre
// congestion (Top4 ≈ 4x Top1 -> unroutable), wiring spread (TopH distributes
// cells and wiring), and the first-order timing estimate (critical path
// ~37 % wire delay, ~480 MHz worst case).
//
// The topology set is the FabricRegistry: each plugin supplies its own
// floorplan and wire extraction (FabricTopology::wires), and each is judged
// against the monolithic central-hub baseline on its own die — so the
// 1024-core TopH2 shows up here without any edit to the physical model.
//
// The heavy part — rasterizing the routing-demand maps — runs per topology
// on the runner pool.

#include <chrono>
#include <iostream>

#include "common/report.hpp"
#include "noc/fabric.hpp"
#include "physical/feasibility.hpp"
#include "runner/bench_cli.hpp"
#include "runner/parallel.hpp"

using namespace mempool::physical;
using mempool::FabricRegistry;
using mempool::FabricTopology;
using mempool::Json;
using mempool::Table;
using mempool::analyze_all_topologies;
using mempool::print_banner;

int main(int argc, char** argv) {
  const mempool::runner::BenchOptions opts =
      mempool::runner::parse_bench_options(&argc, argv,
                                           "tab_physical_feasibility");
  mempool::runner::reject_leftover_args(argc, argv, opts.bench_name);

  print_banner(std::cout,
               "T6 — physical feasibility (analytic floorplan model, "
               "8x8 tiles of 425 um in a 4.6 mm die)");

  const Floorplan fp;
  std::cout << "tile area fraction: " << Table::num(100 * fp.tile_area_fraction(), 1)
            << "% (paper: 55%)\n\n";

  mempool::runner::ThreadPool pool(opts.threads);

  const auto reports = analyze_all_topologies();
  Table t({"topology", "wire demand (bit*mm)", "center congestion vs Top1",
           "spread (CV)", "longest wire (mm)", "critical path (ns)",
           "wire delay", "fmax (MHz)", "routable"});
  for (const auto& r : reports) {
    t.add_row({r.name, Table::num(r.total_wire_bit_mm, 0),
               Table::num(r.center_ratio_vs_top1, 2) + "x",
               Table::num(r.spread, 2), Table::num(r.longest_wire_mm, 2),
               Table::num(r.critical_path_ns, 2),
               Table::num(100 * r.wire_delay_fraction, 0) + "%",
               Table::num(r.fmax_mhz, 0),
               r.feasible ? "yes" : "NO"});
  }
  t.print(std::cout);

  std::cout << "\nPaper claims: Top4 is ~4x more congested than Top1 and "
               "physically infeasible; TopH distributes the wiring and "
               "closes timing at 480 MHz (SS) with 37% of the critical path "
               "in wire delay. TopH2 (1024 cores, double-edge die) repeats "
               "the TopH recipe one level up.\n";

  // Congestion heat maps (normalized 0-9), the Figure-9 analogue — one pool
  // task per topology, each on the plugin's own floorplan.
  const std::vector<std::string> map_topos = {"Top1", "TopH", "TopH2"};
  // wall_seconds covers only this parallel section, as in every other bench.
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::vector<std::string>> maps =
      mempool::runner::run_indexed(pool, map_topos.size(), [&](std::size_t i) {
        const FabricTopology& topo = FabricRegistry::get(map_topos[i]);
        const mempool::ClusterConfig cfg = mempool::ClusterConfig::paper(
            mempool::TopologySpec{map_topos[i]}, true);
        const Floorplan tfp(topo.floorplan_params(cfg));
        CongestionMap m(tfp.params().die_mm, 16);
        m.route_all(topo.wires(cfg, tfp));
        return m.ascii_map();
      });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  for (std::size_t i = 0; i < map_topos.size(); ++i) {
    std::cout << "\n" << map_topos[i] << " routing-demand map (0-9):\n";
    for (const auto& row : maps[i]) std::cout << "  " << row << '\n';
  }

  Json jmaps = Json::object();
  for (std::size_t i = 0; i < map_topos.size(); ++i) {
    Json rows = Json::array();
    for (const auto& row : maps[i]) rows.push_back(row);
    jmaps.set(map_topos[i], std::move(rows));
  }
  Json results = Json::object();
  results.set("feasibility", t.to_json());
  results.set("congestion_maps", std::move(jmaps));
  mempool::runner::write_bench_results(opts, pool.num_threads(), wall,
                                       std::move(results));
  return 0;
}
