// JSON value type and the sweep results writer: parse/dump round trips,
// error handling, and the guarantee a sweep written to disk reads back
// bit-identical (shortest-round-trip double formatting).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/report.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "runner/results.hpp"
#include "runner/runner.hpp"

using namespace mempool;
using namespace mempool::runner;

TEST(Json, ScalarsDumpAndParse) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(uint64_t{1} << 60).dump(), "1152921504606846976");
  EXPECT_EQ(Json(0.25).dump(), "0.25");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");

  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-13").as_int(), -13);
  EXPECT_DOUBLE_EQ(Json::parse("0.125e2").as_double(), 12.5);
  EXPECT_EQ(Json::parse("\"a\\nb\"").as_string(), "a\nb");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json o = Json::object();
  o.set("zebra", 1);
  o.set("apple", 2);
  o.set("mango", 3);
  EXPECT_EQ(o.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  o.set("apple", 9);  // overwrite keeps position
  EXPECT_EQ(o.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
  EXPECT_EQ(o.at("apple").as_int(), 9);
  EXPECT_TRUE(o.contains("mango"));
  EXPECT_FALSE(o.contains("kiwi"));
  EXPECT_EQ(o.get("kiwi", Json(-1)).as_int(), -1);
}

TEST(Json, NestedDocumentRoundTripsThroughText) {
  Json doc = Json::object();
  doc.set("name", "sweep");
  doc.set("ok", true);
  Json arr = Json::array();
  for (int i = 0; i < 4; ++i) arr.push_back(i * 0.1);
  doc.set("values", std::move(arr));
  Json inner = Json::object();
  inner.set("count", int64_t{12345678901234});
  doc.set("meta", std::move(inner));

  const Json back = Json::parse(doc.dump(2));
  EXPECT_EQ(back.dump(), doc.dump());
  EXPECT_EQ(back.at("meta").at("count").as_int(), int64_t{12345678901234});
  EXPECT_EQ(back.at("values").size(), 4u);
}

TEST(Json, DoublesSurviveShortestRoundTrip) {
  // Values with no short decimal representation must still round-trip
  // bit-exactly — the determinism checks on results files depend on it.
  for (double v : {1.0 / 3.0, 0.1, 2.0 / 7.0, 123456.789e-12, 5.22037e5}) {
    const Json back = Json::parse(Json(v).dump());
    EXPECT_EQ(back.as_double(), v);
  }
}

namespace {

// The reference the formatter must match byte for byte: the smallest
// precision P in 1..16 whose "%.Pg" strtod()s back to the value, else
// "%.17g". Cache keys and results files hash or diff these bytes.
std::string reference_format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  if (std::strtod(buf, nullptr) == v) {
    char shorter[40];
    for (int prec = 1; prec < 17; ++prec) {
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

}  // namespace

TEST(Json, DoubleFormatMatchesThePrintfSearch) {
  std::vector<double> values = {0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 1e300,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon()};
  // Every power of two and its neighbours one ulp away: the binades'
  // edges, where the round-trip interval is asymmetric.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, HUGE_VAL));
  }
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Arbitrary bit patterns (every exponent, subnormals included)...
    const double bits = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(bits)) values.push_back(bits);
    // ...short decimals like the λ and p_local that requests carry...
    values.push_back(static_cast<double>(rng.next_below(100000)) /
                     std::pow(10.0, static_cast<double>(rng.next_below(8))));
    // ...and subnormals with few significant bits.
    values.push_back(static_cast<double>(rng.next_below(1u << 20)) *
                     std::numeric_limits<double>::denorm_min());
  }
  for (const double v : values) {
    ASSERT_EQ(Json(v).dump(), reference_format_double(v))
        << "bits " << std::bit_cast<uint64_t>(v);
    ASSERT_EQ(Json(-v).dump(), reference_format_double(-v));
  }
}

TEST(Json, DoubleFormatKeepsPrintfQuirks) {
  EXPECT_EQ(Json(10.0).dump(), "1e+01");
  EXPECT_EQ(Json(1e21).dump(), "1e+21");
  EXPECT_EQ(Json(0.0001).dump(), "0.0001");
  EXPECT_EQ(Json(1e-05).dump(), "1e-05");
  EXPECT_EQ(Json(0.12000000000000001).dump(), "0.12000000000000001");
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, StringEscapes) {
  const std::string s = "quote\" back\\slash tab\t nl\n ctrl\x01";
  EXPECT_EQ(Json::parse(Json(s).dump()).as_string(), s);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse(""), CheckError);
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("[1,]"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), CheckError);
  EXPECT_THROW(Json::parse("nul"), CheckError);
  EXPECT_THROW(Json::parse("'single'"), CheckError);
}

TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(Json::kMaxDepth)));
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), CheckError);
  // Objects count too, interleaved with arrays.
  std::string mixed;
  for (int i = 0; i <= Json::kMaxDepth / 2; ++i) mixed += "{\"a\":[";
  EXPECT_THROW(Json::parse(mixed), CheckError);
  // A hostile line of 100k '[' is a parse error, not a stack overflow.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), CheckError);
}

TEST(Json, TypeMismatchesThrow) {
  EXPECT_THROW(Json(1).as_string(), CheckError);
  EXPECT_THROW(Json("x").as_int(), CheckError);
  EXPECT_THROW(Json(0.5).as_int(), CheckError);  // non-integral double
  EXPECT_THROW(Json(-1).as_uint(), CheckError);
  EXPECT_THROW(Json(1).items(), CheckError);
  EXPECT_THROW(Json::object().at("missing"), CheckError);
}

TEST(Json, Int64RangeGuards) {
  // uint64 values beyond int64 cannot be stored faithfully — reject at
  // construction instead of serializing a negative number.
  EXPECT_THROW(Json(~uint64_t{0}), CheckError);
  EXPECT_NO_THROW(Json(uint64_t{1} << 62));
  // An integral double outside int64 range must not hit UB in the cast.
  EXPECT_THROW(Json::parse("1e300").as_int(), CheckError);
  EXPECT_THROW(Json::parse("-1e300").as_int(), CheckError);
  EXPECT_EQ(Json::parse("1e15").as_int(), 1000000000000000ll);
}

TEST(StatsJson, RunningStatAndHistogramEmit) {
  RunningStat st;
  for (double v : {1.0, 2.0, 3.0}) st.add(v);
  const Json j = st.to_json();
  EXPECT_EQ(j.at("count").as_uint(), 3u);
  EXPECT_DOUBLE_EQ(j.at("mean").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(j.at("max").as_double(), 3.0);

  Histogram h(1.0, 8);
  h.add(0.5);
  h.add(2.5);
  h.add(100.0);  // overflow
  const Json hj = h.to_json();
  EXPECT_EQ(hj.at("overflow").as_uint(), 1u);
  EXPECT_EQ(hj.at("counts").size(), 3u);  // trailing zeros trimmed
  EXPECT_EQ(hj.at("counts").at(0).as_uint(), 1u);
  EXPECT_EQ(hj.at("counts").at(2).as_uint(), 1u);
}

TEST(ReportJson, TableEmitsRowsKeyedByHeader) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"b", "2"});
  const Json j = t.to_json();
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at(0).at("name").as_string(), "a");
  EXPECT_EQ(j.at(1).at("value").as_string(), "2");
}

namespace {

SweepResult small_sweep() {
  SweepSpec spec;
  spec.base.cluster = ClusterConfig::mini("TopH", true);
  spec.base.warmup_cycles = 50;
  spec.base.measure_cycles = 200;
  spec.base.drain_cycles = 100;
  spec.topologies = {"Top1", "TopH"};
  spec.lambdas = {0.1, 0.25};
  spec.seeds = {7};
  spec.paper_cluster = false;
  RunnerOptions opts;
  opts.threads = 2;
  return run_sweep(spec, opts);
}

}  // namespace

TEST(SweepJson, SweepRoundTripsBitIdentical) {
  const SweepResult original = small_sweep();

  // Through the JSON text, as a results file would.
  const Json doc = Json::parse(sweep_to_json(original).dump(2));
  const SweepResult back = sweep_from_json(doc);

  EXPECT_EQ(back.threads, original.threads);
  ASSERT_EQ(back.points.size(), original.points.size());
  for (std::size_t i = 0; i < original.points.size(); ++i) {
    EXPECT_EQ(back.points[i], original.points[i]) << "point " << i;
    EXPECT_EQ(back.configs[i].cluster.topology,
              original.configs[i].cluster.topology);
    EXPECT_EQ(back.configs[i].cluster.num_tiles,
              original.configs[i].cluster.num_tiles);
    EXPECT_EQ(back.configs[i].seed, original.configs[i].seed);
    EXPECT_EQ(back.configs[i].lambda, original.configs[i].lambda);
    EXPECT_EQ(back.configs[i].measure_cycles,
              original.configs[i].measure_cycles);
  }
}

TEST(SweepJson, WritesV3WithSelfDescribingTopologyAndMemory) {
  const SweepResult original = small_sweep();
  const Json doc = sweep_to_json(original);
  EXPECT_EQ(doc.at("schema").as_string(), "mempool.sweep.v3");
  const Json& first = doc.at("points").at(0);
  EXPECT_TRUE(first.at("topology").is_object());
  EXPECT_EQ(first.at("topology").at("name").as_string(), "Top1");
  EXPECT_TRUE(first.at("topology").at("params").is_object());
  EXPECT_TRUE(first.at("memory").is_object());
  EXPECT_EQ(first.at("memory").at("name").as_string(), "tcdm");
  EXPECT_TRUE(first.at("memory").at("params").is_object());
}

TEST(SweepJson, MemorySpecParamsRoundTrip) {
  SweepResult original = small_sweep();
  for (auto& cfg : original.configs) {
    cfg.cluster.memory =
        MemorySpec{"tcdm+l2", {{"l2_latency", Json(uint64_t{11})}}};
  }
  const SweepResult back =
      sweep_from_json(Json::parse(sweep_to_json(original).dump(2)));
  ASSERT_EQ(back.configs.size(), original.configs.size());
  EXPECT_EQ(back.configs[0].cluster.memory, original.configs[0].cluster.memory);
  EXPECT_EQ(back.configs[0].cluster.memory.param_uint("l2_latency", 0), 11u);
}

TEST(SweepJson, RejectsUnknownMemoryNamingAvailable) {
  const SweepResult original = small_sweep();
  Json doc = sweep_to_json(original);
  Json mem = Json::object();
  mem.set("name", "l9-cache");
  mem.set("params", Json::object());
  Json points = Json::array();
  for (std::size_t i = 0; i < doc.at("points").size(); ++i) {
    Json rec = doc.at("points").at(i);
    if (i == 0) rec.set("memory", mem);
    points.push_back(std::move(rec));
  }
  doc.set("points", std::move(points));
  try {
    sweep_from_json(doc);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("l9-cache"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tcdm"), std::string::npos) << msg;
  }
}

TEST(ResultsJson, RejectsOtherSchemasAndIncompleteV3Points) {
  // The readers take only the v3 schemas their writers emit. Each row must
  // throw a CheckError whose message names what was wrong: the accepted
  // schema for an older document, the missing member for a v3 sweep point
  // that lacks one the writer always emits.
  const Json sweep = Json::parse(R"({
    "schema": "mempool.sweep.v3", "threads": 2, "wall_seconds": 0.5,
    "points": [
      {"topology": {"name": "TopH", "params": {}},
       "memory": {"name": "tcdm", "params": {}},
       "scrambling": true, "num_tiles": 16,
       "cores_per_tile": 4, "banks_per_tile": 16, "bank_bytes": 1024,
       "seq_region_bytes": 4096, "num_groups": 4,
       "lambda": 0.25, "p_local": 0.5, "seed": 7,
       "warmup_cycles": 50, "measure_cycles": 200, "drain_cycles": 100,
       "offered": 0.25, "generated": 0.251, "accepted": 0.249,
       "avg_latency": 4.125, "p95_latency": 9.0, "max_latency": 31.0,
       "completed": 3210}
    ]
  })");
  const Json speedup = Json::parse(R"({
    "schema": "mempool.speedup.v3",
    "aggregate_speedup": 3.4, "min_speedup": 2.0,
    "aggregate_sharded_speedup": 1.0,
    "paper_point": {"cycles_per_second": 150000.0,
                    "cycles_per_second_per_shard": 37500.0,
                    "sharded_1t_cycles_per_second": 145000.0},
    "points": []
  })");
  // The unmodified documents read, so every failure below is the row's own.
  EXPECT_EQ(sweep_from_json(sweep).points.size(), 1u);
  EXPECT_EQ(speedup_from_json(speedup).aggregate_speedup, 3.4);

  const auto with_schema = [](Json doc, const std::string& schema) {
    doc.set("schema", schema);
    return doc;
  };
  const auto without_point_member = [&](const std::string& drop) {
    Json rec = Json::object();
    for (const auto& [k, v] : sweep.at("points").at(0).members()) {
      if (k != drop) rec.set(k, v);
    }
    Json points = Json::array();
    points.push_back(std::move(rec));
    Json doc = sweep;
    doc.set("points", std::move(points));
    return doc;
  };
  struct Row {
    std::string label;
    Json doc;
    bool is_speedup;      ///< speedup_from_json, else sweep_from_json.
    std::string mention;  ///< Must appear in the CheckError message.
  };
  std::vector<Row> rows;
  for (const char* version : {"v1", "v2"}) {
    rows.push_back({std::string("sweep ") + version,
                    with_schema(sweep, std::string("mempool.sweep.") + version),
                    false, "mempool.sweep.v3"});
    rows.push_back(
        {std::string("speedup ") + version,
         with_schema(speedup, std::string("mempool.speedup.") + version), true,
         "mempool.speedup.v3"});
  }
  for (const char* member : {"memory", "seed"}) {
    rows.push_back({std::string("v3 sweep point without ") + member,
                    without_point_member(member), false, member});
  }
  for (const Row& row : rows) {
    try {
      if (row.is_speedup) {
        speedup_from_json(row.doc);
      } else {
        sweep_from_json(row.doc);
      }
      ADD_FAILURE() << row.label << ": read without a CheckError";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(row.mention), std::string::npos)
          << row.label << ": " << msg;
    }
  }
}

TEST(SweepJson, RejectsUnknownTopologyNamingAvailable) {
  const SweepResult original = small_sweep();
  Json doc = sweep_to_json(original);
  // Corrupt the first point's topology name.
  Json topo = Json::object();
  topo.set("name", "TopZ");
  topo.set("params", Json::object());
  // Rebuild the document with the bad record (Json has no mutable at()).
  Json points = Json::array();
  for (std::size_t i = 0; i < doc.at("points").size(); ++i) {
    Json rec = doc.at("points").at(i);
    if (i == 0) rec.set("topology", topo);
    points.push_back(std::move(rec));
  }
  doc.set("points", std::move(points));
  try {
    sweep_from_json(doc);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("TopZ"), std::string::npos);
    EXPECT_NE(msg.find("available"), std::string::npos) << msg;
  }
}

TEST(SweepJson, RejectsWrongSchema) {
  Json doc = Json::object();
  doc.set("schema", "something.else.v9");
  EXPECT_THROW(sweep_from_json(doc), CheckError);
}

TEST(SweepJson, BenchEnvelopeShape) {
  const Json env = bench_envelope("fig5", 8, 1.5, Json::object());
  EXPECT_EQ(env.at("schema").as_string(), "mempool.bench.v1");
  EXPECT_EQ(env.at("bench").as_string(), "fig5");
  EXPECT_EQ(env.at("threads").as_uint(), 8u);
  EXPECT_TRUE(env.at("results").is_object());
}

TEST(SweepJson, FileWriterRoundTrips) {
  const SweepResult original = small_sweep();
  const std::string path = ::testing::TempDir() + "/mempool_sweep_rt.json";
  write_json_file(path, sweep_to_json(original));
  const SweepResult back = sweep_from_json(read_json_file(path));
  ASSERT_EQ(back.points.size(), original.points.size());
  for (std::size_t i = 0; i < original.points.size(); ++i)
    EXPECT_EQ(back.points[i], original.points[i]);
  std::remove(path.c_str());
}

TEST(SweepJson, ReadMissingFileThrows) {
  EXPECT_THROW(read_json_file("/nonexistent/dir/x.json"), CheckError);
}

namespace {

TEST(SpeedupJson, ReadsV3WithPaperPointBlock) {
  // mempool.speedup.v3: absolute cycles/sec per point plus the paper_point
  // block (256-core TopH λ=0.05) the CI perf gate keys its cycles/sec floor
  // on. The v1/v2 ratio fields keep their meaning.
  const runner::SpeedupSummary v3 = runner::speedup_from_json(Json::parse(R"({
    "schema": "mempool.speedup.v3",
    "aggregate_speedup": 3.6,
    "min_speedup": 2.1,
    "aggregate_sharded_speedup": 1.0,
    "host_cpus": 1,
    "paper_point": {
      "topology": "TopH", "lambda": 0.05, "num_shards": 4,
      "cycles_per_second": 150000.0,
      "cycles_per_second_per_shard": 37500.0,
      "sharded_1t_cycles_per_second": 145000.0
    },
    "points": [
      {"workload": "fig5", "topology": "TopH", "lambda": 0.05,
       "dense_seconds": 0.2, "active_seconds": 0.05, "speedup": 4.0,
       "sim_cycles": 7000,
       "dense_cycles_per_second": 35000.0,
       "active_cycles_per_second": 140000.0,
       "sharded_seconds": {"1": 0.055},
       "sharded_cycles_per_second": {"1": 127272.7},
       "sharded_speedup": 0.9}
    ]
  })"));
  EXPECT_EQ(v3.schema, "mempool.speedup.v3");
  EXPECT_DOUBLE_EQ(v3.aggregate_speedup, 3.6);
  EXPECT_DOUBLE_EQ(v3.aggregate_sharded_speedup, 1.0);
  EXPECT_DOUBLE_EQ(v3.paper_cycles_per_second, 150000.0);
  EXPECT_DOUBLE_EQ(v3.paper_cycles_per_second_per_shard, 37500.0);
  EXPECT_DOUBLE_EQ(v3.paper_sharded_1t_cycles_per_second, 145000.0);
  EXPECT_EQ(v3.num_points, 1u);

  // A v3 document must carry its paper_point block — a truncated artifact
  // fails loudly instead of gating against a silent zero.
  EXPECT_THROW(runner::speedup_from_json(Json::parse(R"({
    "schema": "mempool.speedup.v3",
    "aggregate_speedup": 3.6, "min_speedup": 2.1,
    "aggregate_sharded_speedup": 1.0, "points": []
  })")),
               CheckError);
}

}  // namespace
