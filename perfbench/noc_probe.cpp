// noc layer probe: the two switch types of the fabric, driven directly with
// seeded saturated input at the shapes a workload's cluster instantiates.
// Every input is topped up before each evaluate() call, so each call
// arbitrates a full set of candidates, as in a heavily loaded fabric. All
// layers are combinational, so one call moves packets through every layer.

#include <map>
#include <tuple>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "mem/imem.hpp"
#include "noc/butterfly.hpp"
#include "noc/xbar.hpp"
#include "trace.hpp"

namespace perfbench {

using mempool::Packet;
using mempool::PacketSink;

namespace {

class DiscardSink final : public PacketSink {
 public:
  bool can_accept() const override { return true; }
  void push(const Packet& /*p*/) override {}
};

constexpr uint64_t kCallsPerShape = 20'000;

/// Mean host ns per evaluate() at saturation.
template <typename Net>
double ns_per_eval(Net& net, std::size_t inputs, unsigned destinations,
                   mempool::Rng& rng) {
  double ns = 0;
  for (uint64_t cycle = 0; cycle < kCallsPerShape; ++cycle) {
    for (std::size_t i = 0; i < inputs; ++i) {
      PacketSink* in = net.input(i);
      while (in->can_accept()) {
        Packet p;
        p.dst_tile = static_cast<uint16_t>(rng.next_below(destinations));
        p.src_tile = static_cast<uint16_t>(i);
        in->push(p);
      }
    }
    const Clock::time_point a = Clock::now();
    net.evaluate(cycle);
    ns += seconds_between(a, Clock::now()) * 1e9;
  }
  return ns / static_cast<double>(kCallsPerShape);
}

}  // namespace

void run_noc_probe(const mempool::ClusterConfig& cfg, uint64_t seed,
                   Tracer* tracer, Outcome* out) {
  // The fabric plugin creates its networks in the Cluster constructor.
  mempool::InstrMem imem(4096);
  const mempool::Cluster cluster(cfg, &imem);

  // Shape -> number of instances in the cluster (both directions).
  std::map<std::tuple<std::size_t, unsigned, unsigned>, uint64_t> bflys;
  for (const auto* list :
       {&cluster.req_butterflies(), &cluster.resp_butterflies()}) {
    for (const mempool::ButterflyNet* b : *list) {
      ++bflys[{b->num_endpoints(), b->radix(), b->num_layers()}];
    }
  }
  std::map<std::pair<std::size_t, std::size_t>, uint64_t> xbars;
  for (const auto* list :
       {&cluster.group_req_xbars(), &cluster.group_resp_xbars()}) {
    for (const mempool::XbarSwitch* x : *list) {
      ++xbars[{x->num_inputs(), x->num_outputs()}];
    }
  }

  mempool::Rng rng(mempool::splitmix64(seed ^ 0x90c0'0b1eull));
  DiscardSink sink;
  double weighted = 0;
  uint64_t count = 0;
  {
    Scope s(tracer, "noc.butterfly_evaluate");
    for (const auto& [shape, n] : bflys) {
      const auto [endpoints, radix, layers] = shape;
      mempool::ButterflyNet net(
          "probe_bfly", endpoints, radix,
          std::vector<mempool::BufferMode>(layers,
                                           mempool::BufferMode::kCombinational),
          [endpoints](const Packet& p) {
            return static_cast<unsigned>(p.dst_tile % endpoints);
          });
      for (std::size_t o = 0; o < endpoints; ++o) net.connect_output(o, &sink);
      weighted += static_cast<double>(n) *
                  ns_per_eval(net, endpoints,
                              static_cast<unsigned>(endpoints), rng);
      count += n;
    }
  }
  out->values["noc.butterfly.ns_per_eval"] =
      count != 0 ? weighted / static_cast<double>(count) : 0.0;

  weighted = 0;
  count = 0;
  {
    Scope s(tracer, "noc.xbar_evaluate");
    for (const auto& [shape, n] : xbars) {
      const auto [inputs, outputs] = shape;
      mempool::XbarSwitch net(
          "probe_xbar", inputs, mempool::BufferMode::kCombinational, outputs,
          [outputs](const Packet& p) {
            return static_cast<unsigned>(p.dst_tile % outputs);
          });
      for (std::size_t o = 0; o < outputs; ++o) net.connect_output(o, &sink);
      weighted += static_cast<double>(n) *
                  ns_per_eval(net, inputs, static_cast<unsigned>(outputs), rng);
      count += n;
    }
  }
  out->values["noc.xbar.ns_per_eval"] =
      count != 0 ? weighted / static_cast<double>(count) : 0.0;
}

}  // namespace perfbench
