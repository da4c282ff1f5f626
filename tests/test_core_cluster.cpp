// Cluster-level integration: multi-core programs, barriers, determinism,
// fabric invariants — across all four topologies.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "helpers.hpp"
#include "kernels/runtime.hpp"
#include "mem/imem.hpp"

namespace mempool {
namespace {

class ClusterTopo : public ::testing::TestWithParam<test::PaperTopo> {};

TEST_P(ClusterTopo, EveryCoreStoresAndLoadsItsOwnWord) {
  const ClusterConfig cfg =
      ClusterConfig::mini(test::topo_name(GetParam()), true);
  auto sys = test::run_text(cfg, R"(
    _start:
      csrr a0, mhartid
      slli t0, a0, 2
      li t1, 0x20000
      add t0, t0, t1
      addi t2, a0, 7
      sw t2, 0(t0)
      lw t3, 0(t0)
      li t4, 0xC0000000
      sw t3, 0(t4)
  )");
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    EXPECT_EQ(sys->core(c).exit_code(), c + 7) << "core " << c;
    EXPECT_EQ(sys->read_word(0x20000 + 4 * c), c + 7);
  }
}

TEST_P(ClusterTopo, AllToAllStoresLand) {
  // Each core writes a word into *every tile's* sequential region; the sum
  // of everything must match. Exercises all paths of the fabric.
  const ClusterConfig cfg =
      ClusterConfig::mini(test::topo_name(GetParam()), true);
  auto sys = test::run_text(cfg, R"(
    _start:
      csrr a0, mhartid
      li t0, 0           # tile loop counter
      li t1, 16          # num tiles
    loop:
      slli t2, t0, 12    # tile seq base (4096 per tile)
      slli t3, a0, 2
      add t2, t2, t3     # + 4*hartid
      addi t4, a0, 1
      sw t4, 0(t2)
      addi t0, t0, 1
      bne t0, t1, loop
      li a0, 0
      ecall
  )", 500000);
  uint64_t sum = 0;
  for (uint32_t t = 0; t < cfg.num_tiles; ++t) {
    for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
      sum += sys->read_word(t * 4096 + 4 * c);
    }
  }
  const uint64_t per_tile =
      static_cast<uint64_t>(cfg.num_cores()) * (cfg.num_cores() + 1) / 2;
  EXPECT_EQ(sum, per_tile * cfg.num_tiles);
}

// A client shaped like a drained traffic generator: it issues one load,
// then reports idle() and only counts what deliver() brings.
class OneLoadClient final : public Client {
 public:
  OneLoadClient(uint16_t id, uint16_t tile, const MemoryLayout* layout,
                uint32_t addr)
      : Client("one_load" + std::to_string(id), id, tile),
        layout_(layout),
        addr_(addr) {}

  void evaluate(uint64_t cycle) override {
    if (responses > 0) ++evaluations_after_response;
    if (issued_) return;
    Packet p;
    p.op = MemOp::kLoad;
    p.src = id_;
    p.src_tile = tile_;
    p.birth = cycle;
    layout_->route(p, addr_);
    issued_ = port_->try_issue(p);
  }
  bool idle() const override { return issued_; }
  void deliver(const Packet& /*resp*/) override { ++responses; }

  uint32_t evaluations_after_response = 0;
  uint32_t responses = 0;

 private:
  const MemoryLayout* layout_;
  uint32_t addr_;
  bool issued_ = false;
};

TEST_P(ClusterTopo, ResponseDeliveryDoesNotWakeASleepingClient) {
  // Every client loads from a remote tile and goes to sleep. Its response
  // arrives through the fabric's ClientSink (or TopX's ideal bridge) while
  // it sleeps, and no other event wakes it, so it is never evaluated again.
  const ClusterConfig cfg =
      ClusterConfig::mini(test::topo_name(GetParam()), true);
  InstrMem imem(4096);
  Engine engine;
  Cluster cluster(cfg, &imem);
  std::vector<std::unique_ptr<OneLoadClient>> owned;
  std::vector<Client*> clients;
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    const uint32_t tile = c / cfg.cores_per_tile;
    const uint32_t remote = (tile + cfg.num_tiles / 2) % cfg.num_tiles;
    owned.push_back(std::make_unique<OneLoadClient>(
        static_cast<uint16_t>(c), static_cast<uint16_t>(tile),
        &cluster.layout(), remote * cfg.seq_region_bytes));
    clients.push_back(owned.back().get());
  }
  cluster.attach_clients(clients);
  cluster.build(engine);
  engine.run(200);
  for (const auto& client : owned) {
    EXPECT_EQ(client->responses, 1u) << client->name();
    EXPECT_EQ(client->evaluations_after_response, 0u) << client->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ClusterTopo,
                         ::testing::Values(test::PaperTopo::kTopX,
                                           test::PaperTopo::kTopH,
                                           test::PaperTopo::kTop4,
                                           test::PaperTopo::kTop1),
                         [](const auto& tpinfo) {
                           return test::topo_name(tpinfo.param);
                         });

TEST(ClusterIntegration, BarrierRepeatedRounds) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  const kernels::RuntimeLayout layout = kernels::make_runtime_layout(cfg);
  isa::Assembler a;
  kernels::emit_crt0(a, cfg, 256);
  kernels::emit_barrier(a, cfg, layout);
  // main: per round, amoadd a per-round counter then barrier; after each
  // barrier every core must observe the full count.
  using isa::Reg;
  a.l("main");
  a.mv(Reg::s11, Reg::ra);
  a.li(Reg::s0, 0);  // round
  a.l("round");
  a.li(Reg::t0, static_cast<int32_t>(layout.data_base));
  a.slli(Reg::t1, Reg::s0, 2);
  a.add(Reg::t0, Reg::t0, Reg::t1);   // counter for this round
  a.li(Reg::t1, 1);
  a.amoadd_w(Reg::zero, Reg::t1, Reg::t0);
  a.call("barrier");
  // Check the counter reads the full core count.
  a.li(Reg::t0, static_cast<int32_t>(layout.data_base));
  a.slli(Reg::t1, Reg::s0, 2);
  a.add(Reg::t0, Reg::t0, Reg::t1);
  a.lw(Reg::t2, Reg::t0, 0);
  a.li(Reg::t3, static_cast<int32_t>(cfg.num_cores()));
  a.bne(Reg::t2, Reg::t3, "fail");
  a.addi(Reg::s0, Reg::s0, 1);
  a.li(Reg::t4, 5);  // 5 rounds
  a.bne(Reg::s0, Reg::t4, "round");
  a.li(Reg::a0, 0);
  a.mv(Reg::ra, Reg::s11);
  a.ret();
  a.l("fail");
  a.li(Reg::a0, 1);
  a.mv(Reg::ra, Reg::s11);
  a.ret();

  System sys(cfg);
  sys.load_program(a.finish());
  const auto r = sys.run(500000);
  ASSERT_TRUE(r.all_halted);
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    EXPECT_EQ(sys.core(c).exit_code(), 0u) << "core " << c << " saw a torn barrier";
  }
}

TEST(ClusterIntegration, DeterministicAcrossRuns) {
  auto run_once = [] {
    const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
    auto sys = test::run_text(cfg, R"(
      _start:
        csrr a0, mhartid
        li t0, 0x28000
        li t1, 1
        amoadd.w t2, t1, (t0)
        li t3, 0xC0000000
        sw t2, 0(t3)
    )");
    return sys->engine().cycle();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ClusterIntegration, FabricDrainsAfterHalt) {
  const ClusterConfig cfg = ClusterConfig::mini("Top1", true);
  auto sys = test::run_text(cfg, R"(
    _start:
      csrr a0, mhartid
      slli t0, a0, 2
      li t1, 0x3C000
      add t0, t0, t1
      sw a0, 0(t0)      # posted store, then immediately exit
      li t2, 0xC0000000
      sw zero, 0(t2)
  )");
  EXPECT_TRUE(sys->cluster().fabric_idle());
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    EXPECT_EQ(sys->read_word(0x3C000 + 4 * c), c);
  }
}

TEST(ClusterIntegration, ScramblingOffSpreadsSequentialAddresses) {
  // With scrambling off the "tile 3 sequential region" address lands in a
  // bank chosen by the interleaved map instead.
  const ClusterConfig on_cfg = ClusterConfig::mini("TopH", true);
  const ClusterConfig off_cfg = ClusterConfig::mini("TopH", false);
  const MemoryLayout on(on_cfg), off(off_cfg);
  const uint32_t addr = 3 * 4096 + 64;  // inside tile 3's region when on
  EXPECT_EQ(on.locate(addr).tile, 3u);
  EXPECT_NE(off.locate(addr).tile, 3u);
}

TEST(ClusterIntegration, InvalidConfigsRejected) {
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.num_tiles = 8;  // not 4^k per group
  EXPECT_THROW(cfg.validate(), CheckError);
  ClusterConfig cfg2 = ClusterConfig::mini("Top1", true);
  cfg2.num_tiles = 32;  // not a power of 4
  EXPECT_THROW(cfg2.validate(), CheckError);
}

TEST(ClusterIntegration, CoreStatsAccounting) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  auto sys = test::run_text(cfg, test::only_core0(R"(
    li a1, 0x20000
    lw a2, 0(a1)
    sw a2, 4(a1)
    li a3, 3
    li a4, 4
    mul a5, a3, a4
    div a6, a4, a3
    li a0, 0
    ecall
  )"));
  const auto& s = sys->core(0).stats();
  EXPECT_EQ(s.mul, 1u);
  EXPECT_EQ(s.div, 1u);
  EXPECT_EQ(s.loads_local + s.loads_remote, 1u);
  // Control-register writes (EXIT) are not SPM stores.
  EXPECT_EQ(s.stores_local + s.stores_remote, 1u);
}

}  // namespace
}  // namespace mempool
