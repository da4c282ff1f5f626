#pragma once
// One MemPool tile (Section III-B, Figure 2): four Snitch core slots, sixteen
// SPM banks with single-cycle core access, a shared 4-way I$, the merged
// request crossbar (local cores + K remote slave ports → banks), the
// bank-response crossbar (banks → local cores + K remote response ports), the
// remote-response interconnect (K response slave ports → cores), and — for
// Top1/TopH — the crossbar that routes core requests to the K master ports.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "core/client.hpp"
#include "core/cluster_config.hpp"
#include "mem/bank.hpp"
#include "mem/icache.hpp"
#include "mem/imem.hpp"
#include "noc/xbar.hpp"
#include "sim/engine.hpp"

namespace mempool {

/// Always-ready terminal sink delivering responses into a client. Delivery
/// does not wake the client: a client that has response-driven work must not
/// report idle() while it waits (cores sleep only once halted), and one that
/// does sleep acts on a response inside deliver() alone (a generator only
/// counts it).
class ClientSink final : public PacketSink {
 public:
  explicit ClientSink(Client* c) : c_(c) {}
  bool can_accept() const override { return true; }
  void push(const Packet& p) override { c_->deliver(p); }
  /// DRC: terminal delivery into the client (same-cycle direct call).
  const Wakeable* drc_terminal() const override { return c_; }

 private:
  Client* c_;
};

class Tile {
 public:
  /// @param arena         shard arena the tile's components (I$, crossbars
  ///                      and their buffer storage) are carved out of, in
  ///                      evaluation order; the arena owns them and outlives
  ///                      the tile.
  /// @param banks         the tile's L1 banks, constructed by the memory-
  ///                      system plugin (mem/memsys.hpp) in the same arena,
  ///                      in bank order.
  /// @param with_fabric   false for the ideal TopX baseline (banks + I$ only;
  ///                      the cluster wires cores straight to banks).
  /// @param num_master_ports outputs of the per-tile master-port crossbar
  ///                      (Top1: 1, TopH: 4, Top4/TopX: 0 = none).
  /// @param num_slave_ports  remote request/response slave ports (K).
  /// @param slave_req_modes / slave_resp_modes buffer mode per slave port
  ///                      (registered = extra pipeline boundary).
  /// @param dir_route     routes a core's remote request to a master port.
  /// @param bank_resp_route routes a bank response to a local core
  ///                      [0, cores) or remote response port [cores, cores+K).
  Tile(uint32_t index, const ClusterConfig& cfg, const InstrMem* imem,
       Arena& arena, std::vector<SpmBank*> banks, bool with_fabric,
       uint32_t num_master_ports, uint32_t num_slave_ports,
       std::vector<BufferMode> slave_req_modes,
       std::vector<BufferMode> slave_resp_modes, RouteFn dir_route,
       RouteFn bank_resp_route);

  // --- connection points (request path) -------------------------------------
  PacketSink* core_local_req(uint32_t core_in_tile);
  PacketSink* slave_req(uint32_t k);
  PacketSink* dir_input(uint32_t core_in_tile);
  void connect_dir_output(uint32_t k, PacketSink* sink);

  // --- connection points (response path) ------------------------------------
  PacketSink* resp_slave(uint32_t k);
  void connect_resp_remote_output(uint32_t k, PacketSink* sink);

  /// Attach the tile's clients; creates the always-ready delivery sinks for
  /// the response crossbars.
  void connect_clients(const std::vector<Client*>& clients);

  // --- engine hookup, grouped by evaluation phase ----------------------------
  // @p shard: the tile's shard under the sharded engine (inert otherwise).
  void add_resp_early(Engine& engine, uint32_t shard = 0);  ///< bank-resp xbar
  void add_resp_late(Engine& engine, uint32_t shard = 0);   ///< remote-resp ic
  void add_fetch(Engine& engine, uint32_t shard = 0);       ///< shared I$
  void add_req_early(Engine& engine, uint32_t shard = 0);   ///< dir crossbar
  void add_req_late(Engine& engine, uint32_t shard = 0);    ///< req xbar+banks

  // --- accessors -------------------------------------------------------------
  SpmBank& bank(uint32_t b) { return *banks_[b]; }
  const SpmBank& bank(uint32_t b) const { return *banks_[b]; }
  ICache& icache() { return *icache_; }
  const ICache& icache() const { return *icache_; }
  XbarSwitch* req_xbar() { return req_xbar_; }
  XbarSwitch* bank_resp_xbar() { return bank_resp_xbar_; }
  XbarSwitch* remote_resp_xbar() { return remote_resp_xbar_; }
  XbarSwitch* dir_xbar() { return dir_xbar_; }
  uint32_t index() const { return index_; }
  uint32_t num_banks() const { return static_cast<uint32_t>(banks_.size()); }

  /// True when no packet is parked anywhere in the tile's fabric.
  bool fabric_idle() const;

 private:
  uint32_t index_;
  uint32_t cores_;
  // All raw pointers below are owned by the shard arena handed to the
  // constructor, which outlives the tile (Cluster declares its arenas
  // first). The tile destructor therefore deletes nothing.
  std::vector<SpmBank*> banks_;
  ICache* icache_ = nullptr;
  XbarSwitch* req_xbar_ = nullptr;
  XbarSwitch* bank_resp_xbar_ = nullptr;
  XbarSwitch* remote_resp_xbar_ = nullptr;
  XbarSwitch* dir_xbar_ = nullptr;
  std::vector<std::unique_ptr<ClientSink>> client_sinks_;
};

}  // namespace mempool
