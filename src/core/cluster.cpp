#include "core/cluster.hpp"

#include <sstream>

#include "common/check.hpp"
#include "noc/fabric.hpp"
#include "verify/drc.hpp"

namespace mempool {

// --- CorePort ---------------------------------------------------------------

CorePort::CorePort(Cluster* cluster, uint32_t core)
    : cluster_(cluster), tile_(core / cluster->config().cores_per_tile) {}

bool CorePort::try_issue(const Packet& p) {
  PacketSink* sink;
  if (ideal_) {
    sink = cluster_->tiles_[p.dst_tile]->bank(p.dst_bank).request_input();
  } else if (p.dst_tile == tile_) {
    sink = local_;
  } else {
    sink = remote_;
  }
  if (!sink->can_accept()) return false;
  sink->push(p);
  return true;
}

void CorePort::describe(GraphVisitor& v) const {
  if (ideal_) {
    // TopX: the core reaches every bank's request queue directly.
    for (const auto& t : cluster_->tiles_) {
      for (uint32_t b = 0; b < t->num_banks(); ++b) {
        v.writes(t->bank(b).request_input(), "bank");
      }
    }
    return;
  }
  if (local_ != nullptr) v.writes(local_, "req.local");
  if (remote_ != nullptr) v.writes(remote_, "req.remote");
}

// --- IdealRespBridge ----------------------------------------------------------

IdealRespBridge::IdealRespBridge(std::string name, uint32_t num_banks,
                                 const std::vector<Client*>* clients,
                                 Arena* arena)
    : Component(std::move(name)), clients_(clients) {
  sinks_.reserve(num_banks);
  bufs_.reserve_exact(num_banks, arena);
  for (uint32_t b = 0; b < num_banks; ++b) {
    bufs_.emplace_back(BufferMode::kRegistered, 2, arena);
  }
  for (auto& b : bufs_) {
    // a committed response re-arms the bridge
    b.set_consumer(this, this->name().c_str());
    sinks_.emplace_back(b);
  }
}

void IdealRespBridge::register_clocked(Engine& engine, uint32_t shard) {
  for (auto& b : bufs_) engine.add_clocked(&b, shard);
}

void IdealRespBridge::evaluate(uint64_t /*cycle*/) {
  for (auto& b : bufs_) {
    while (!b.empty()) {
      const Packet p = b.pop();
      (*clients_)[p.src]->deliver(p);  // no wake: see ClientSink
    }
  }
}

bool IdealRespBridge::idle() const {
  for (const auto& b : bufs_) {
    if (!b.empty()) return false;
  }
  return true;
}

void IdealRespBridge::save_state(StateSink& s) const {
  for (const PacketBuffer& buf : bufs_) buf.save_state(s);
}

void IdealRespBridge::load_state(StateSource& s) {
  for (PacketBuffer& buf : bufs_) buf.load_state(s);
}

void IdealRespBridge::describe(GraphVisitor& v) const {
  std::size_t b = 0;
  for (const auto& buf : bufs_) {
    v.reads(&buf, "bank" + std::to_string(b));
    // evaluate() drains each buffer to empty every cycle and delivery into
    // the clients is a terminal (never-backpressured) call: the declared
    // always-accepting port that breaks response-side dependency cycles.
    v.sinks_unconditionally(&buf, "bank" + std::to_string(b));
    ++b;
  }
  for (const Client* c : *clients_) v.writes_terminal(c, "deliver");
}

// --- FabricBuilder ------------------------------------------------------------

const ClusterConfig& FabricBuilder::config() const { return c_->cfg_; }

uint32_t FabricBuilder::num_tiles() const {
  return static_cast<uint32_t>(c_->tiles_.size());
}

Tile& FabricBuilder::tile(uint32_t t) { return *c_->tiles_[t]; }

Arena& FabricBuilder::arena(uint32_t shard) {
  MEMPOOL_CHECK_MSG(shard < c_->arenas_.size(),
                    "FabricBuilder::arena(" << shard << ") with "
                                            << c_->arenas_.size()
                                            << " shards");
  return *c_->arenas_[shard];
}

ButterflyNet* FabricBuilder::add_req_butterfly(ButterflyNet* n,
                                               uint32_t shard) {
  c_->req_bflys_.push_back(n);
  c_->req_bfly_shards_.push_back(shard);
  return n;
}

ButterflyNet* FabricBuilder::add_resp_butterfly(ButterflyNet* n,
                                                uint32_t shard) {
  c_->resp_bflys_.push_back(n);
  c_->resp_bfly_shards_.push_back(shard);
  return n;
}

XbarSwitch* FabricBuilder::add_req_group_xbar(XbarSwitch* x, uint32_t shard) {
  c_->group_req_lxbars_.push_back(x);
  c_->group_req_shards_.push_back(shard);
  return x;
}

XbarSwitch* FabricBuilder::add_resp_group_xbar(XbarSwitch* x, uint32_t shard) {
  c_->group_resp_lxbars_.push_back(x);
  c_->group_resp_shards_.push_back(shard);
  return x;
}

PacketSink* FabricBuilder::shard_boundary(uint32_t producer_shard,
                                          uint32_t consumer_shard,
                                          PacketSink* sink) {
  MEMPOOL_CHECK(sink != nullptr);
  const uint32_t shards = c_->fabric_->num_shards(c_->cfg_);
  MEMPOOL_CHECK_MSG(producer_shard < shards && consumer_shard < shards,
                    "shard_boundary(" << producer_shard << ", "
                                      << consumer_shard << ") with "
                                      << shards << " shards");
  if (producer_shard != consumer_shard) {
    // Pre-check so a mis-wired boundary fails with the full wiring context
    // (which edge, which shards, what was declared so far) instead of the
    // sink's generic "cannot sit on a shard boundary" CHECK.
    MEMPOOL_CHECK_MSG(sink->shard_boundary_capable(),
                      "shard_boundary(" << producer_shard << " -> "
                                        << consumer_shard
                                        << "): sink is not backed by a "
                                           "registered elastic buffer — only "
                                           "registered buffers may cross "
                                           "shards (combinational cross-shard "
                                           "paths break the sharded engine's "
                                           "bit-identity); boundaries "
                                           "declared so far: "
                                        << c_->boundary_registry());
    sink->mark_shard_boundary(consumer_shard);
    ++c_->boundary_counts_[{producer_shard, consumer_shard}];
  }
  return sink;
}

ButterflyNet* FabricBuilder::req_butterfly(std::size_t i) {
  MEMPOOL_CHECK(i < c_->req_bflys_.size());
  return c_->req_bflys_[i];
}

void FabricBuilder::wire_core_ports(uint32_t core, PacketSink* local,
                                    PacketSink* remote) {
  CorePort& port = *c_->ports_[core];
  port.local_ = local;
  port.remote_ = remote;
}

void FabricBuilder::wire_core_ideal(uint32_t core) {
  c_->ports_[core]->ideal_ = true;
}

void FabricBuilder::add_ideal_tile_bridges() {
  MEMPOOL_CHECK_MSG(!c_->clients_.empty(),
                    "ideal bridges need the clients attached");
  for (uint32_t t = 0; t < c_->cfg_.num_tiles; ++t) {
    Arena& a = *c_->arenas_[c_->tile_shard(t)];
    IdealRespBridge* bridge = a.make<IdealRespBridge>(
        "tile" + std::to_string(t) + ".ideal_bridge",
        c_->cfg_.banks_per_tile, &c_->clients_, &a);
    for (uint32_t b = 0; b < c_->cfg_.banks_per_tile; ++b) {
      c_->tiles_[t]->bank(b).connect_response(bridge->bank_input(b));
    }
    c_->bridges_.push_back(bridge);
  }
}

// --- MemoryBuilder ------------------------------------------------------------

const ClusterConfig& MemoryBuilder::config() const { return c_->cfg_; }

const MemoryLayout& MemoryBuilder::layout() const { return c_->layout_; }

uint32_t MemoryBuilder::num_tiles() const {
  return static_cast<uint32_t>(c_->tiles_.size());
}

Tile& MemoryBuilder::tile(uint32_t t) { return *c_->tiles_[t]; }

uint32_t MemoryBuilder::num_shards() const { return c_->num_shards(); }

uint32_t MemoryBuilder::tile_shard(uint32_t t) const {
  return c_->tile_shard(t);
}

Arena& MemoryBuilder::shard_arena(uint32_t shard) {
  MEMPOOL_CHECK_MSG(shard < c_->arenas_.size(),
                    "MemoryBuilder::shard_arena(" << shard << ") with "
                                                  << c_->arenas_.size()
                                                  << " shards");
  return *c_->arenas_[shard];
}

uint32_t MemoryBuilder::group_shard(uint32_t g) const {
  const uint32_t tpg = c_->cfg_.tiles_per_group();
  const uint32_t shard = c_->tile_shard(g * tpg);
  for (uint32_t t = g * tpg; t < (g + 1) * tpg; ++t) {
    MEMPOOL_CHECK_MSG(c_->tile_shard(t) == shard,
                      "group " << g << " spans shards (tile " << t
                               << " is in shard " << c_->tile_shard(t)
                               << ", tile " << g * tpg << " in " << shard
                               << ") — group-local memory engines need the "
                                  "fabric to shard along groups");
  }
  return shard;
}

// --- Cluster ------------------------------------------------------------------

ClusterConfig Cluster::validated(ClusterConfig cfg) {
  cfg.validate();
  return cfg;
}

std::string Cluster::boundary_registry() const {
  if (boundary_counts_.empty()) return "none";
  std::ostringstream os;
  bool first = true;
  for (const auto& [edge, count] : boundary_counts_) {
    if (!first) os << ", ";
    first = false;
    os << edge.first << "->" << edge.second << " x" << count;
  }
  return os.str();
}

Cluster::Cluster(const ClusterConfig& cfg, const InstrMem* imem)
    : cfg_(validated(cfg)),
      memsys_(MemoryRegistry::get(cfg_.memory.name).instantiate(cfg_)),
      layout_(memsys_->make_layout()),
      imem_(imem) {
  MEMPOOL_CHECK(imem != nullptr);

  fabric_ = &FabricRegistry::get(cfg_.topology.name);
  const TileShape shape = fabric_->tile_shape(cfg_);

  // One component arena per fabric shard. Everything below — tiles, banks,
  // crossbars, networks, bridges, memory engines, and all their ElasticBuffer
  // ring storage — is carved out of the owning shard's arena in construction
  // (= evaluation) order, so a shard's per-cycle walk touches one contiguous
  // region instead of chasing individually heap-allocated components.
  const uint32_t shards = fabric_->num_shards(cfg_);
  arenas_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    arenas_.push_back(std::make_unique<Arena>());
  }

  tiles_.reserve(cfg_.num_tiles);
  for (uint32_t t = 0; t < cfg_.num_tiles; ++t) {
    TilePorts ports = fabric_->tile_ports(cfg_, t);
    Arena& a = *arenas_[fabric_->tile_shard(cfg_, t)];
    tiles_.push_back(a.make<Tile>(
        t, cfg_, imem_, a, memsys_->make_banks(t, shape.bank_input_capacity, a),
        shape.fabric, shape.master_ports, shape.slave_ports,
        std::move(ports.slave_req_modes), std::move(ports.slave_resp_modes),
        std::move(ports.dir_route), std::move(ports.resp_route)));
  }

  FabricBuilder builder(this);
  fabric_->build_networks(builder);

  // The memory hierarchy's own machinery (L2, DMA engines) builds after the
  // tiles and fabric networks exist; tcdm builds nothing here.
  MemoryBuilder mem_builder(this);
  memsys_->build(mem_builder);

  ports_.reserve(cfg_.num_cores());
  for (uint32_t c = 0; c < cfg_.num_cores(); ++c) {
    ports_.push_back(std::make_unique<CorePort>(this, c));
  }
}

Cluster::~Cluster() = default;

void Cluster::attach_clients(const std::vector<Client*>& clients) {
  MEMPOOL_CHECK_MSG(clients.size() == cfg_.num_cores(),
                    "need " << cfg_.num_cores() << " clients, got "
                            << clients.size());
  clients_ = clients;
  const uint32_t cpt = cfg_.cores_per_tile;
  for (uint32_t t = 0; t < cfg_.num_tiles; ++t) {
    std::vector<Client*> local(clients_.begin() + t * cpt,
                               clients_.begin() + (t + 1) * cpt);
    tiles_[t]->connect_clients(local);
  }

  // Wire the per-core ports; the plugin decides where each port leads.
  FabricBuilder builder(this);
  for (uint32_t c = 0; c < cfg_.num_cores(); ++c) {
    fabric_->wire_core(builder, c);
    clients_[c]->bind_port(ports_[c].get());
  }
  fabric_->attach_clients_hook(builder);
}

uint32_t Cluster::num_shards() const { return fabric_->num_shards(cfg_); }

uint32_t Cluster::tile_shard(uint32_t tile) const {
  return fabric_->tile_shard(cfg_, tile);
}

void Cluster::build(Engine& engine) {
  MEMPOOL_CHECK_MSG(!built_, "Cluster::build called twice");
  MEMPOOL_CHECK_MSG(!clients_.empty(), "attach_clients before build");
  built_ = true;

  // Shard assignment: every tile-resident component inherits its tile's
  // shard, networks carry the shard the plugin tagged them with at add_*
  // time. Under the sequential engines the ids are inert; under the sharded
  // engine they are the partition (see noc/fabric.hpp, num_shards).
  const uint32_t shards = num_shards();
  std::vector<uint32_t> tshard(tiles_.size());
  for (uint32_t t = 0; t < tiles_.size(); ++t) {
    tshard[t] = tile_shard(t);
    MEMPOOL_CHECK_MSG(tshard[t] < shards, "tile " << t << " assigned to shard "
                                                  << tshard[t] << " of "
                                                  << shards);
  }

  // 1. Response path: bank-response crossbars ...
  for (auto& t : tiles_) t->add_resp_early(engine, tshard[t->index()]);
  // ... response networks ...
  for (std::size_t i = 0; i < group_resp_lxbars_.size(); ++i) {
    engine.add_component(group_resp_lxbars_[i], group_resp_shards_[i]);
    group_resp_lxbars_[i]->register_clocked(engine, group_resp_shards_[i]);
  }
  for (std::size_t i = 0; i < resp_bflys_.size(); ++i) {
    engine.add_component(resp_bflys_[i], resp_bfly_shards_[i]);
    resp_bflys_[i]->register_clocked(engine, resp_bfly_shards_[i]);
  }
  // ... and delivery into the cores.
  for (auto& t : tiles_) t->add_resp_late(engine, tshard[t->index()]);
  for (IdealRespBridge* br : bridges_) {
    engine.add_component(br);
    br->register_clocked(engine);
  }

  // 2. Instruction caches, then the clients themselves.
  for (auto& t : tiles_) t->add_fetch(engine, tshard[t->index()]);
  for (Client* c : clients_) {
    engine.add_component(c, tshard[c->tile()]);
  }

  // 2b. Memory-hierarchy engines (tcdm+l2's DMA frontends/backends), after
  //     the clients — they observe this cycle's core submissions — and
  //     before the request path, so their bank-port traffic lands before the
  //     banks evaluate. tcdm registers nothing.
  memsys_->add_components(engine);

  // 3. Request path: master-port crossbars, request networks, merged request
  //    crossbars, banks.
  for (auto& t : tiles_) t->add_req_early(engine, tshard[t->index()]);
  for (std::size_t i = 0; i < group_req_lxbars_.size(); ++i) {
    engine.add_component(group_req_lxbars_[i], group_req_shards_[i]);
    group_req_lxbars_[i]->register_clocked(engine, group_req_shards_[i]);
  }
  for (std::size_t i = 0; i < req_bflys_.size(); ++i) {
    engine.add_component(req_bflys_[i], req_bfly_shards_[i]);
    req_bflys_[i]->register_clocked(engine, req_bfly_shards_[i]);
  }
  for (auto& t : tiles_) t->add_req_late(engine, tshard[t->index()]);

  // Elaboration-time design-rule check (verify/drc.hpp): automatic in Debug
  // builds and whenever the runtime shard-race checker is compiled in (which
  // this pass also arms). Release builds lint through `--drc` / the tests.
#if !defined(NDEBUG) || defined(MEMPOOL_DRC)
  {
    const verify::DrcReport report = verify::run_drc(engine, shards);
    MEMPOOL_CHECK_MSG(report.clean(), report.summary());
#if defined(MEMPOOL_DRC)
    verify::arm_runtime_checker(engine);
#endif
  }
#endif
}

DmaPortal* Cluster::dma_portal(uint32_t tile) {
  return memsys_->dma_portal(cfg_.group_of_tile(tile));
}

uint32_t Cluster::read_word(uint32_t cpu_addr) const {
  if (memsys_->handles(cpu_addr)) return memsys_->backdoor_read(cpu_addr);
  const BankLocation loc = layout_.locate(cpu_addr);
  return tiles_[loc.tile]->bank(loc.bank).backdoor_read(loc.row);
}

void Cluster::write_word(uint32_t cpu_addr, uint32_t value) {
  if (memsys_->handles(cpu_addr)) {
    memsys_->backdoor_write(cpu_addr, value);
    return;
  }
  const BankLocation loc = layout_.locate(cpu_addr);
  tiles_[loc.tile]->bank(loc.bank).backdoor_write(loc.row, value);
}

Cluster::FabricStats Cluster::fabric_stats() const {
  FabricStats s;
  for (const auto& t : tiles_) {
    if (t->req_xbar()) s.tile_req_traversals += t->req_xbar()->traversals();
    if (t->bank_resp_xbar())
      s.tile_resp_traversals += t->bank_resp_xbar()->traversals();
    if (t->dir_xbar()) s.dir_traversals += t->dir_xbar()->traversals();
    if (t->remote_resp_xbar())
      s.remote_resp_traversals += t->remote_resp_xbar()->traversals();
    for (uint32_t b = 0; b < t->num_banks(); ++b) {
      s.bank_accesses += t->bank(b).accesses();
      s.bank_stall_cycles += t->bank(b).stall_cycles();
    }
    s.icache_hits += t->icache().hits();
    s.icache_misses += t->icache().misses();
    s.icache_refills += t->icache().refills();
  }
  for (const auto& x : group_req_lxbars_) s.group_local_traversals += x->traversals();
  for (const auto& x : group_resp_lxbars_) s.group_local_traversals += x->traversals();
  for (const auto& b : req_bflys_) s.butterfly_traversals += b->traversals();
  for (const auto& b : resp_bflys_) s.butterfly_traversals += b->traversals();
  return s;
}

bool Cluster::fabric_idle() const {
  for (const auto& t : tiles_) {
    if (!t->fabric_idle()) return false;
  }
  for (const auto& x : group_req_lxbars_) {
    if (!x->idle()) return false;
  }
  for (const auto& x : group_resp_lxbars_) {
    if (!x->idle()) return false;
  }
  for (const auto& b : req_bflys_) {
    if (!b->idle()) return false;
  }
  for (const auto& b : resp_bflys_) {
    if (!b->idle()) return false;
  }
  return memsys_->idle();
}

}  // namespace mempool
