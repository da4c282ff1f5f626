#include "serve/request.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "mem/memsys.hpp"
#include "noc/fabric.hpp"

namespace mempool::serve {

namespace {

/// FNV-1a 64-bit over @p s — tiny, dependency-free, and stable across
/// platforms. Collisions are guarded against by comparing canonical strings
/// wherever the hash is used as a key (see serve/cache.cpp).
uint64_t fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// {name, params} canonical sub-object; std::map iteration gives the sorted
/// param order. Param values are serialized verbatim (plugins validate their
/// own types).
Json spec_json(const std::string& name,
               const std::map<std::string, Json>& params) {
  Json j = Json::object();
  j.set("name", name);
  Json p = Json::object();
  for (const auto& [k, v] : params) p.set(k, v);
  j.set("params", std::move(p));
  return j;
}

/// Parse a topology/memory member that is either a bare name string or a
/// {name, params} object.
template <typename Spec>
Spec parse_spec(const Json& j, const char* what) {
  Spec spec;
  if (j.type() == Json::Type::kString) {
    spec.name = j.as_string();
    return spec;
  }
  MEMPOOL_CHECK_MSG(j.is_object(), "request member '"
                                       << what
                                       << "' must be a name string or a "
                                          "{name, params} object, got "
                                       << j.dump());
  spec.name = j.at("name").as_string();
  const Json params = j.get("params", Json::object());
  for (const auto& [k, v] : params.members()) spec.params[k] = v;
  return spec;
}

/// The wire-schema members of a run request, in canonical order. from_json
/// rejects anything else by name so a typo ("lamda") fails loudly instead of
/// silently simulating the default.
constexpr const char* kRequestFields[] = {
    "topology",      "memory",          "scrambling",       "num_tiles",
    "cores_per_tile", "banks_per_tile", "bank_bytes",       "seq_region_bytes",
    "num_groups",    "lambda",          "p_local",          "seed",
    "warmup_cycles", "measure_cycles",  "drain_cycles",     "stall_horizon",
    // Delivery metadata, accepted on the wire but excluded from the
    // canonical serialization (it must not split the cache key space).
    "deadline_ms"};

uint32_t override_u32(const Json& j, const char* key, uint32_t fallback) {
  if (!j.contains(key)) return fallback;
  return static_cast<uint32_t>(j.at(key).as_uint());
}

}  // namespace

SimRequest SimRequest::from_config(const TrafficExperimentConfig& cfg) {
  return SimRequest{cfg};
}

SimRequest SimRequest::from_json(const Json& j) {
  MEMPOOL_CHECK_MSG(j.is_object(),
                    "a simulation request must be a JSON object, got "
                        << j.dump());
  for (const auto& [key, value] : j.members()) {
    (void)value;
    bool known = false;
    for (const char* f : kRequestFields) known = known || key == f;
    if (!known) {
      std::ostringstream fields;
      for (const char* f : kRequestFields) {
        if (fields.tellp() > 0) fields << ", ";
        fields << f;
      }
      MEMPOOL_CHECK_MSG(false, "unknown request member '"
                                   << key << "'; the schema has: "
                                   << fields.str());
    }
  }

  TopologySpec topo = j.contains("topology")
                          ? parse_spec<TopologySpec>(j.at("topology"),
                                                     "topology")
                          : TopologySpec{};
  MEMPOOL_CHECK_MSG(FabricRegistry::find(topo.name) != nullptr,
                    "unknown topology '" << topo.name << "'; available: "
                                         << FabricRegistry::available());
  const bool scrambling = j.get("scrambling", Json(true)).as_bool();

  TrafficExperimentConfig cfg;
  // The plugin's canonical scale is the geometry default, so a request that
  // names only the topology means the same cluster the benches run.
  cfg.cluster = ClusterConfig::paper(topo, scrambling);
  cfg.cluster.num_tiles = override_u32(j, "num_tiles", cfg.cluster.num_tiles);
  cfg.cluster.cores_per_tile =
      override_u32(j, "cores_per_tile", cfg.cluster.cores_per_tile);
  cfg.cluster.banks_per_tile =
      override_u32(j, "banks_per_tile", cfg.cluster.banks_per_tile);
  cfg.cluster.bank_bytes =
      override_u32(j, "bank_bytes", cfg.cluster.bank_bytes);
  cfg.cluster.seq_region_bytes =
      override_u32(j, "seq_region_bytes", cfg.cluster.seq_region_bytes);
  cfg.cluster.num_groups =
      override_u32(j, "num_groups", cfg.cluster.num_groups);
  if (j.contains("memory")) {
    MemorySpec mem = parse_spec<MemorySpec>(j.at("memory"), "memory");
    MEMPOOL_CHECK_MSG(MemoryRegistry::find(mem.name) != nullptr,
                      "unknown memory system '" << mem.name << "'; available: "
                                                << MemoryRegistry::available());
    cfg.cluster.memory = std::move(mem);
  }

  cfg.lambda = j.get("lambda", Json(cfg.lambda)).as_double();
  cfg.p_local_seq = j.get("p_local", Json(cfg.p_local_seq)).as_double();
  cfg.seed = j.get("seed", Json(cfg.seed)).as_uint();
  cfg.warmup_cycles = j.get("warmup_cycles", Json(cfg.warmup_cycles)).as_uint();
  cfg.measure_cycles =
      j.get("measure_cycles", Json(cfg.measure_cycles)).as_uint();
  cfg.drain_cycles = j.get("drain_cycles", Json(cfg.drain_cycles)).as_uint();
  cfg.stall_horizon =
      j.get("stall_horizon", Json(cfg.stall_horizon)).as_uint();
  SimRequest req{cfg};
  req.deadline_ms = j.get("deadline_ms", Json(uint64_t{0})).as_uint();
  return req;
}

Json SimRequest::to_json() const {
  const ClusterConfig& c = config.cluster;
  Json j = Json::object();
  j.set("topology", spec_json(c.topology.name, c.topology.params));
  j.set("memory", spec_json(c.memory.name, c.memory.params));
  j.set("scrambling", c.scrambling);
  j.set("num_tiles", c.num_tiles);
  j.set("cores_per_tile", c.cores_per_tile);
  j.set("banks_per_tile", c.banks_per_tile);
  j.set("bank_bytes", c.bank_bytes);
  j.set("seq_region_bytes", c.seq_region_bytes);
  j.set("num_groups", c.num_groups);
  j.set("lambda", config.lambda);
  j.set("p_local", config.p_local_seq);
  j.set("seed", config.seed);
  j.set("warmup_cycles", config.warmup_cycles);
  j.set("measure_cycles", config.measure_cycles);
  j.set("drain_cycles", config.drain_cycles);
  // The watchdog never changes simulation results (it can only abort a
  // wedged point), but it is part of the canonical form: a point that would
  // abort must not be answered from a cache entry computed with a different
  // horizon, and vice versa.
  j.set("stall_horizon", config.stall_horizon);
  return j;
}

std::string SimRequest::canonical() const { return to_json().dump(0); }

std::string SimRequest::key() const { return canonical_form().key; }

CanonicalForm SimRequest::canonical_form() const {
  CanonicalForm form;
  form.text = canonical();
  form.hash = fnv1a64(std::string(kResultVersion) + '\n' + form.text);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, form.hash);
  form.key = hex;
  return form;
}

std::string SimRequest::label() const {
  std::ostringstream os;
  os << config.cluster.topology.name << " mem=" << config.cluster.memory.name
     << " λ=" << config.lambda << " p=" << config.p_local_seq
     << " seed=" << config.seed;
  return os.str();
}

void SimRequest::validate() const {
  config.cluster.validate();
  MEMPOOL_CHECK_MSG(std::isfinite(config.lambda) && config.lambda >= 0.0,
                    "lambda (" << config.lambda
                               << ") must be a finite non-negative load");
  MEMPOOL_CHECK_MSG(std::isfinite(config.p_local_seq) &&
                        config.p_local_seq >= 0.0 && config.p_local_seq <= 1.0,
                    "p_local (" << config.p_local_seq
                                << ") must be a probability in [0, 1]");
  MEMPOOL_CHECK_MSG(config.measure_cycles >= 1,
                    "measure_cycles must be >= 1 (an empty measure window "
                    "has no defined throughput)");
}

Json SimResult::to_json() const {
  Json j = Json::object();
  j.set("request_key", request_key);
  j.set("offered", point.offered);
  j.set("generated", point.generated);
  j.set("accepted", point.accepted);
  j.set("avg_latency", point.avg_latency);
  j.set("p95_latency", point.p95_latency);
  j.set("max_latency", point.max_latency);
  j.set("completed", point.completed);
  return j;
}

SimResult SimResult::from_json(const Json& j) {
  SimResult r;
  r.request_key = j.at("request_key").as_string();
  r.point.offered = j.at("offered").as_double();
  r.point.generated = j.at("generated").as_double();
  r.point.accepted = j.at("accepted").as_double();
  r.point.avg_latency = j.at("avg_latency").as_double();
  r.point.p95_latency = j.at("p95_latency").as_double();
  r.point.max_latency = j.at("max_latency").as_double();
  r.point.completed = j.at("completed").as_uint();
  return r;
}

SimResult run_point(const SimRequest& req, CheckpointOptions ckpt,
                    unsigned concurrent) {
  req.validate();
  SimResult r;
  r.request_key = req.key();
  ckpt.key = r.request_key;
  r.point = run_traffic_point(req.config, ckpt, nullptr, concurrent);
  return r;
}

}  // namespace mempool::serve
