#pragma once
// Shared test utilities.

#include <memory>
#include <string>

#include "core/client.hpp"
#include "core/system.hpp"
#include "isa/text_asm.hpp"
#include "traffic/probe.hpp"

namespace mempool::test {

/// Assemble and run a program on a fresh system; returns the system for
/// inspection. The program must halt every core within @p max_cycles.
inline std::unique_ptr<System> run_text(const ClusterConfig& cfg,
                                        const std::string& src,
                                        uint64_t max_cycles = 200000) {
  auto sys = std::make_unique<System>(cfg);
  sys->load_program(isa::assemble_text(src));
  const System::RunResult r = sys->run(max_cycles);
  MEMPOOL_CHECK_MSG(r.all_halted, "test program did not halt");
  return sys;
}

/// Guard prologue: cores other than hart 0 exit immediately with code 0.
inline std::string only_core0(const std::string& body) {
  return R"(
    _start:
      csrr t0, mhartid
      beqz t0, core0
      li t1, 0xC0000000
      sw zero, 0(t1)
    self: j self
    core0:
  )" + body;
}

/// The paper's four topologies as a gtest parameter. The suites that sweep
/// them take this one-byte index rather than the registry name because
/// gtest_discover_tests writes the printed parameter into every ctest name
/// ("... # GetParam() = 1-byte object <02>"); the tests themselves only use
/// topo_name(), the registry name.
enum class PaperTopo : uint8_t { kTop1, kTop4, kTopH, kTopX };

inline const char* topo_name(PaperTopo t) {
  static constexpr const char* kNames[] = {"Top1", "Top4", "TopH", "TopX"};
  return kNames[static_cast<uint8_t>(t)];
}

/// The single-load probe used to measure zero-load latencies precisely —
/// the shared implementation lives in src/traffic/probe.hpp.
using mempool::ProbeClient;

}  // namespace mempool::test
