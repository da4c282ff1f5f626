// SimRequest canonicalization: requests that mean the same point must share
// one canonical byte string (and therefore one cache key) regardless of
// member order, whitespace, numeric typing, or spelled-out defaults — and
// requests that differ in any physics-relevant field must not.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "serve/request.hpp"
#include "traffic/experiment.hpp"

using namespace mempool;
using namespace mempool::serve;

namespace {

SimRequest parse(const std::string& text) {
  return SimRequest::from_json(Json::parse(text));
}

/// A fast 64-core point for the run_point comparison.
TrafficExperimentConfig mini_config() {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini("TopH", true);
  cfg.lambda = 0.1;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 100;
  cfg.seed = 7;
  return cfg;
}

}  // namespace

TEST(SimRequest, MemberOrderAndWhitespaceDoNotChangeTheKey) {
  const SimRequest a = parse(R"({"topology": "TopH", "lambda": 0.2, "seed": 3})");
  const SimRequest b = parse(
      "{\n  \"seed\": 3,\n  \"topology\": \"TopH\",\n  \"lambda\": 0.2\n}");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a, b);
}

TEST(SimRequest, ExplicitDefaultsHashLikeOmittedOnes) {
  const SimRequest implicit = parse(R"({"topology": "TopH"})");
  const SimRequest spelled = parse(R"({
    "topology": {"name": "TopH", "params": {}},
    "memory": "tcdm",
    "scrambling": true,
    "num_tiles": 64, "cores_per_tile": 4, "banks_per_tile": 16,
    "bank_bytes": 1024, "seq_region_bytes": 4096, "num_groups": 4,
    "lambda": 0.1, "p_local": 0.0, "seed": 1,
    "warmup_cycles": 1000, "measure_cycles": 4000, "drain_cycles": 2000})");
  EXPECT_EQ(implicit.key(), spelled.key());
}

TEST(SimRequest, NumericTypingIsNormalized) {
  // 0 (int) and 0.0 (double) mean the same probability; 1 and 1.0 the same λ.
  const SimRequest a = parse(R"({"lambda": 1, "p_local": 0})");
  const SimRequest b = parse(R"({"lambda": 1.0, "p_local": 0.0})");
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(SimRequest, PhysicsFieldsChangeTheKey) {
  const SimRequest base = parse(R"({"topology": "TopH"})");
  const char* variants[] = {
      R"({"topology": "TopH", "seed": 2})",
      R"({"topology": "TopH", "memory": "tcdm+l2"})",
      R"({"topology": "TopH", "lambda": 0.2})",
      R"({"topology": "TopH", "p_local": 0.5})",
      R"({"topology": "TopH", "scrambling": false})",
      R"({"topology": "Top1"})",
      R"({"topology": "TopH", "num_tiles": 16})",
      R"({"topology": "TopH", "measure_cycles": 100})",
  };
  for (const char* text : variants) {
    EXPECT_NE(base.key(), parse(text).key()) << text;
  }
}

TEST(SimRequest, PluginParamsAreSortedIntoTheCanonicalForm) {
  const SimRequest a = parse(
      R"({"memory": {"name": "tcdm+l2",
                     "params": {"l2_latency": 8, "l2_bytes": 65536}}})");
  const SimRequest b = parse(
      R"({"memory": {"name": "tcdm+l2",
                     "params": {"l2_bytes": 65536, "l2_latency": 8}}})");
  EXPECT_EQ(a.canonical(), b.canonical());
  // ... and the params are part of the key.
  EXPECT_NE(a.key(), parse(R"({"memory": "tcdm+l2"})").key());
}

TEST(SimRequest, UnknownMembersAreRejectedNamingTheSchema) {
  try {
    parse(R"({"lamda": 0.2})");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("lamda"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("lambda"), std::string::npos);
  }
}

TEST(SimRequest, EngineMembersAreUnknown) {
  // The engine is planned per point (plan_engine), so a request
  // cannot name one: "engine" and "sim_threads" fail like any typo.
  for (const char* text :
       {R"({"engine": "active"})", R"({"sim_threads": 4})"}) {
    try {
      parse(text);
      ADD_FAILURE() << text << ": expected CheckError";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown request member"), std::string::npos) << msg;
      EXPECT_NE(msg.find("lambda"), std::string::npos) << msg;
    }
  }
}

TEST(SimRequest, UnknownPluginNamesListTheAlternatives) {
  try {
    parse(R"({"topology": "TopZ"})");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("TopZ"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("TopH"), std::string::npos);
  }
  EXPECT_THROW(parse(R"({"memory": "warp-drive"})"), CheckError);
}

TEST(SimRequest, JsonRoundTripIsExact) {
  const SimRequest req = SimRequest::from_config(mini_config());
  const SimRequest again = SimRequest::from_json(req.to_json());
  EXPECT_EQ(req.canonical(), again.canonical());
  EXPECT_EQ(req.key(), again.key());
}

TEST(SimRequest, KeyIsSixteenLowercaseHexDigits) {
  const std::string key = SimRequest::from_config(mini_config()).key();
  ASSERT_EQ(key.size(), 16u);
  for (const char c : key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << key;
  }
}

TEST(SimRequest, CanonicalBytesAndKeyArePinned) {
  // Disk caches written by earlier builds stay valid only while these bytes
  // and this key do not move (kResultVersion is bumped on purpose, never as
  // a side effect of how a double is printed).
  const SimRequest req = parse(
      R"({"topology":"TopH","lambda":0.12000000000000001,"p_local":0.25,)"
      R"("seed":7})");
  EXPECT_EQ(req.canonical(),
            R"({"topology":{"name":"TopH","params":{}},)"
            R"("memory":{"name":"tcdm","params":{}},"scrambling":true,)"
            R"("num_tiles":64,"cores_per_tile":4,"banks_per_tile":16,)"
            R"("bank_bytes":1024,"seq_region_bytes":4096,"num_groups":4,)"
            R"("lambda":0.12000000000000001,"p_local":0.25,"seed":7,)"
            R"("warmup_cycles":1000,"measure_cycles":4000,)"
            R"("drain_cycles":2000,"stall_horizon":0})");
  EXPECT_EQ(req.key(), "b6a2f4d64389f1db");

  const CanonicalForm form = req.canonical_form();
  EXPECT_EQ(form.text, req.canonical());
  EXPECT_EQ(form.hash, 0xb6a2f4d64389f1dbull);
  EXPECT_EQ(form.key, "b6a2f4d64389f1db");
}

TEST(SimResult, JsonRoundTripIsBitExact) {
  SimResult r;
  r.request_key = "00ff00ff00ff00ff";
  r.point.offered = 0.3;
  r.point.generated = 0.299871;
  r.point.accepted = 0.25000000000000011;  // needs full double round-trip
  r.point.avg_latency = 17.25;
  r.point.p95_latency = 40;
  r.point.max_latency = 93;
  r.point.completed = 12345;
  EXPECT_EQ(SimResult::from_json(r.to_json()), r);
}

TEST(RunPoint, MatchesRunTrafficPointBitForBit) {
  const TrafficExperimentConfig cfg = mini_config();
  const SimRequest req = SimRequest::from_config(cfg);
  const SimResult served = run_point(req);
  EXPECT_EQ(served.request_key, req.key());
  EXPECT_EQ(served.point, run_traffic_point(cfg));
}

TEST(RunPoint, InvalidRequestsThrowCheckError) {
  TrafficExperimentConfig bad = mini_config();
  bad.lambda = -0.5;
  EXPECT_THROW(run_point(SimRequest::from_config(bad)), CheckError);

  bad = mini_config();
  bad.p_local_seq = 1.5;
  EXPECT_THROW(run_point(SimRequest::from_config(bad)), CheckError);

  bad = mini_config();
  bad.measure_cycles = 0;
  EXPECT_THROW(run_point(SimRequest::from_config(bad)), CheckError);

  bad = mini_config();
  bad.cluster.num_tiles = 3;  // not a power of two
  EXPECT_THROW(run_point(SimRequest::from_config(bad)), CheckError);
}
