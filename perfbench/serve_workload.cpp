// serve_mixed: an in-process SimServer on an AF_UNIX socket (memory cache
// only, one simulation worker) driven by one SimClient connection. Each
// session replays the traffic of the CI service smoke test,
//
//   sim_loadgen --requests 1000 --unique 16 --coalesce 8   (window 32)
//
// against a fresh server: the same point grid, the same phases and the same
// replay stream for a given seed. A short probe with one request in flight
// follows, on warm hits only, so that a hit's own cost is measured apart from
// the queueing of the pipelined phases.

#include <unistd.h>

#include <algorithm>
#include <map>
#include <optional>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using mempool::Json;
using mempool::serve::ServiceResponse;
using mempool::serve::SimClient;
using mempool::serve::SimRequest;
using mempool::serve::SimResult;
using mempool::serve::SimServer;

namespace {

// sim_loadgen's defaults (tools/sim_loadgen.cpp) and the CI smoke's
// --coalesce 8.
constexpr std::size_t kUnique = 16;
constexpr std::size_t kRequests = 1000;  // prime + replay
constexpr std::size_t kWindow = 32;      // replay requests in flight
constexpr std::size_t kCoalesce = 8;
// Warm hits sent one at a time after the mix.
constexpr std::size_t kProbeHits = 200;

/// sim_loadgen's make_request: mini-cluster points that differ in (λ, seed).
SimRequest make_point(uint64_t seed, uint64_t index) {
  mempool::TrafficExperimentConfig cfg;
  cfg.cluster = workload_cluster("serve_mixed");
  cfg.lambda = 0.02 + 0.02 * static_cast<double>(index % 8);
  cfg.p_local_seq = 0.0;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 100;
  cfg.seed = seed + index / 8;
  return SimRequest::from_config(cfg);
}

/// One phase of a session: indices into the point list, sent with at most
/// @c window in flight.
struct Phase {
  const char* name;
  std::vector<std::size_t> points;
  std::size_t window;
};

/// The session's phases, as sim_loadgen sends them for @p seed. Points
/// 0..kUnique-1 form the grid; point kUnique is the coalesce point.
std::vector<Phase> make_phases(uint64_t seed) {
  Phase prime{"serve.prime", {}, 1};
  for (std::size_t i = 0; i < kUnique; ++i) prime.points.push_back(i);
  Phase replay{"serve.replay", {}, kWindow};
  mempool::Rng rng(seed ^ 0x10adc0de'0000'0000ull);
  for (std::size_t i = kUnique; i < kRequests; ++i) {
    replay.points.push_back(static_cast<std::size_t>(rng.next_below(kUnique)));
  }
  Phase coalesce{"serve.coalesce", std::vector<std::size_t>(kCoalesce, kUnique),
                 kCoalesce};
  Phase probe{"serve.probe", {}, 1};
  mempool::Rng probe_rng(mempool::splitmix64(seed ^ 0x9b0be'0000ull));
  for (std::size_t i = 0; i < kProbeHits; ++i) {
    probe.points.push_back(
        static_cast<std::size_t>(probe_rng.next_below(kUnique)));
  }
  return {prime, replay, coalesce, probe};
}

struct Reply {
  uint64_t id;  ///< Request ids follow send order.
  std::size_t phase;
  std::size_t point;
  ServiceResponse resp;
  double rtt_ms;
};

/// Closed loop over one phase: the next request goes out when a reply frees
/// a slot. @p next_id is the client's next request id (a fresh client
/// numbers its requests 1, 2, ... in send order).
void exchange(SimClient& client, const std::vector<SimRequest>& points,
              const Phase& phase, std::size_t phase_index, Tracer* tracer,
              uint64_t id_base, uint64_t* next_id, std::vector<Reply>* got) {
  std::map<uint64_t, std::pair<std::size_t, Clock::time_point>> inflight;
  std::size_t sent = 0;
  const auto send_next = [&] {
    Scope s(tracer, "serve.send", id_base + *next_id);
    uint64_t id = 0;
    Json line = client.make_run_line(points[phase.points[sent]], &id);
    MEMPOOL_CHECK(id == *next_id);
    ++*next_id;
    inflight[id] = {phase.points[sent], Clock::now()};
    client.send_line(line);
    ++sent;
  };
  while (sent < phase.points.size() && inflight.size() < phase.window) {
    send_next();
  }
  while (!inflight.empty()) {
    Json j;
    {
      Scope s(tracer, "serve.recv");
      j = client.recv_line();
    }
    const Clock::time_point now = Clock::now();
    const uint64_t id = j.at("id").as_uint();
    const auto it = inflight.find(id);
    MEMPOOL_CHECK_MSG(it != inflight.end(), "reply for unknown id " << id);
    if (tracer != nullptr) {
      tracer->request("serve.request", id_base + id, it->second.second, now);
    }
    got->push_back({id, phase_index, it->second.first,
                    mempool::serve::response_from_json(j),
                    seconds_between(it->second.second, now) * 1e3});
    inflight.erase(it);
    if (sent < phase.points.size()) send_next();
  }
}

}  // namespace

std::string reply_mismatch(const ServiceResponse& resp, const std::string& key,
                           const SimResult& first, const SimResult& local) {
  if (!resp.ok) return "error reply (" + resp.kind + "): " + resp.error;
  if (resp.key != key) return "key " + resp.key + " answers request " + key;
  if (!(resp.result == first)) {
    return "result differs from the first answer for " + key;
  }
  if (!(resp.result == local)) {
    return "result differs from a local run_point for " + key;
  }
  return {};
}

Outcome run_serve_workload(const Options& opt, Tracer* tracer) {
  std::vector<SimRequest> points;
  for (std::size_t i = 0; i < kUnique; ++i) {
    points.push_back(make_point(opt.seed, i));
  }
  // The coalesce point: a point outside the grid, as sim_loadgen picks it.
  points.push_back(make_point(opt.seed, 100'000 + kUnique));
  const std::vector<Phase> phases = make_phases(opt.seed);
  const std::size_t probe_phase = phases.size() - 1;
  mempool::serve::ServerConfig scfg;
  scfg.socket_path =
      opt.out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  scfg.service.threads = 1;  // one simulation worker, memory cache only

  Outcome out;
  PassTracing tracing(tracer);
  std::vector<double> setup_s, key_us, hit_us, miss_ms, service_ms,
      transport_us;
  BestTimes rtt;       // per request of the mix, in send order
  BestTimes phase_ms;  // per phase of the mix
  uint64_t hits = 0, coalesced = 0, mixed = 0, probes = 0, sessions = 0,
           request_ids = 0;
  ChunkLog reference;  // the local run_point calls, one pass per session
  std::map<std::string, SimResult> first;  // first answer per key, all sessions
  const Clock::time_point deadline = deadline_after(opt.seconds);
  do {
    Tracer* const tr = tracing.for_pass(sessions);
    Scope pass_span(tr, "bench.pass");
    std::optional<SimServer> server;
    std::optional<SimClient> client;
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(tr, "serve.server_start");
      server.emplace(scfg);
      server->start();
      client.emplace(scfg.socket_path, /*timeout_ms=*/2000,
                     /*read_timeout_ms=*/60'000);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));

    std::vector<std::string> keys;
    {
      Scope s(tr, "serve.key");
      for (const SimRequest& p : points) {
        const Clock::time_point a = Clock::now();
        keys.push_back(p.key());
        key_us.push_back(seconds_between(a, Clock::now()) * 1e6);
      }
    }

    std::vector<Reply> got;
    uint64_t next_id = 1;
    double session_mixed_s = 0;
    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      const Clock::time_point a = Clock::now();
      {
        Scope s(tr, phases[ph].name);
        exchange(*client, points, phases[ph], ph, tr, request_ids, &next_id,
                 &got);
      }
      if (ph != probe_phase) {
        const double dt = seconds_between(a, Clock::now());
        phase_ms.add(dt * 1e3);
        session_mixed_s += dt;
      }
    }
    phase_ms.end_pass();
    request_ids += next_id - 1;
    {
      Scope s(tr, "serve.server_stop");
      client.reset();
      server->stop();
      server->wait();
      server.reset();
    }

    // Outside the timed window: a local run_point per point, the reference
    // every reply must match bit for bit.
    std::vector<SimResult> local;
    for (const SimRequest& p : points) {
      Scope s(tr, "serve.run_point");
      const Clock::time_point a = Clock::now();
      local.push_back(mempool::serve::run_point(p));
      const mempool::TrafficExperimentConfig& c = p.config;
      reference.add(seconds_between(a, Clock::now()),
                    c.warmup_cycles + c.measure_cycles + c.drain_cycles,
                    local.back().point.completed);
    }
    reference.end_pass();
    tracing.record(sessions, reference.pass_cycles_per_s.back(),
                   static_cast<double>(got.size() - kProbeHits) /
                       session_mixed_s);
    ++sessions;

    Scope check_span(tr, "bench.check");
    std::sort(got.begin(), got.end(),
              [](const Reply& a, const Reply& b) { return a.id < b.id; });
    std::size_t coalesce_computed = 0;
    for (const Reply& r : got) {
      if (r.phase != probe_phase) rtt.add(r.rtt_ms);
      ++out.attempted;
      const std::string& key = keys[r.point];
      const SimResult& ref = local[r.point];
      if (r.resp.ok) first.emplace(key, r.resp.result);
      const auto f = first.find(key);
      const std::string bad = reply_mismatch(
          r.resp, key, f != first.end() ? f->second : ref, ref);
      if (!bad.empty()) {
        out.fail("serve_mixed: " + bad);
        continue;
      }
      if (r.phase == probe_phase) {
        // One request in flight on a warm cache: the hit's own cost.
        ++probes;
        if (!r.resp.cache_hit) {
          out.fail("serve_mixed: a probe request for " + key + " missed");
          continue;
        }
        hit_us.push_back(r.rtt_ms * 1e3);
        transport_us.push_back((r.rtt_ms - r.resp.service_ms) * 1e3);
        continue;
      }
      ++mixed;
      service_ms.push_back(r.resp.service_ms);
      if (r.resp.cache_hit) {
        ++hits;
      } else if (r.resp.coalesced) {
        ++coalesced;
      } else if (r.phase == 0) {
        miss_ms.push_back(r.rtt_ms);  // a prime request: cold, nothing queued
      } else if (r.phase == 2) {
        ++coalesce_computed;
      }
    }
    // Identical in-flight requests compute once; the rest coalesce or hit.
    if (coalesce_computed > 1) {
      out.fail("serve_mixed: " + std::to_string(coalesce_computed) + " of " +
               std::to_string(kCoalesce) +
               " identical in-flight requests were computed");
    }
    rtt.end_pass();
  } while (Clock::now() < deadline);

  out.values["setup_s"] = median(setup_s);
  Outcome ref_out;  // the reference calls' sim_* figures
  reference.report(&ref_out);
  out.values["sim_cycles_per_s"] = ref_out.values["sim_cycles_per_s"];
  out.values["sim_instructions_per_s"] =
      ref_out.values["sim_instructions_per_s"];
  out.values["request_ms_p50"] = rtt.quantile(0.5);
  out.values["request_ms_p99"] = rtt.quantile(0.99);
  out.values["requests_per_s"] = static_cast<double>(kRequests + kCoalesce) /
                                 (phase_ms.total_ms() / 1e3);
  out.values["serve.key_us"] = median(key_us);
  out.values["serve.hit_us_p50"] = quantile(hit_us, 0.5);
  out.values["serve.hit_us_p99"] = quantile(hit_us, 0.99);
  out.values["serve.miss_ms_p50"] = median(miss_ms);
  out.values["serve.service_ms_p50"] = median(service_ms);
  out.values["serve.transport_us_p50"] = median(transport_us);
  out.values["serve.hit_rate"] =
      static_cast<double>(hits) / static_cast<double>(mixed);
  out.values["serve.coalesced_frac"] =
      static_cast<double>(coalesced) / static_cast<double>(mixed);
  tracing.report(&out);
  out.notes.push_back(
      std::to_string(sessions) + " sessions, " + std::to_string(mixed) +
      " requests in the mix (" + std::to_string(hits) + " hits, " +
      std::to_string(coalesced) + " coalesced, " +
      std::to_string(miss_ms.size()) + " cold misses; window " +
      std::to_string(kWindow) + " in the replay); request_ms_p50/p99 are "
      "over the best round trip of each of the " + std::to_string(rtt.size()) +
      " requests of a session (p99: " + std::to_string(rtt.size() / 100) +
      " beyond it), requests_per_s over the best time of each phase; " +
      std::to_string(probes) + " probe hits with one in flight");
  return out;
}

}  // namespace perfbench
