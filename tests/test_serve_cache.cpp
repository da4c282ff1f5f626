// ResultCache: LRU semantics of the memory tier, write-through + revival of
// the disk tier, version invalidation, and corrupt-file tolerance. No
// simulations run here — results are fabricated.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "runner/results.hpp"
#include "serve/cache.hpp"

using namespace mempool;
using namespace mempool::serve;

namespace {

SimRequest req(double lambda, uint64_t seed) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini("TopH", true);
  cfg.lambda = lambda;
  cfg.seed = seed;
  return SimRequest::from_config(cfg);
}

SimResult fake_result(const SimRequest& r, double accepted) {
  SimResult res;
  res.request_key = r.key();
  res.point.offered = r.config.lambda;
  res.point.accepted = accepted;
  res.point.completed = 99;
  return res;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("mempool_cache_" + tag + "_" +
                           std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

TEST(ResultCache, MissThenHit) {
  ResultCache cache(8);
  const SimRequest a = req(0.1, 1);
  EXPECT_FALSE(cache.lookup(a.canonical_form()).has_value());
  cache.insert(a.canonical_form(), fake_result(a, 0.5));
  const auto hit = cache.lookup(a.canonical_form());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request_key, a.key());
  EXPECT_DOUBLE_EQ(hit->point.accepted, 0.5);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, LruEvictsTheLeastRecentlyUsedEntry) {
  ResultCache cache(2);
  const SimRequest a = req(0.1, 1), b = req(0.2, 1), c = req(0.3, 1);
  cache.insert(a.canonical_form(), fake_result(a, 1));
  cache.insert(b.canonical_form(), fake_result(b, 2));
  // touch a → b is now LRU
  ASSERT_TRUE(cache.lookup(a.canonical_form()).has_value());
  cache.insert(c.canonical_form(), fake_result(c, 3));  // evicts b
  EXPECT_TRUE(cache.lookup(a.canonical_form()).has_value());
  EXPECT_FALSE(cache.lookup(b.canonical_form()).has_value());
  EXPECT_TRUE(cache.lookup(c.canonical_form()).has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, ReinsertRefreshesInsteadOfGrowing) {
  ResultCache cache(4);
  const SimRequest a = req(0.1, 1);
  cache.insert(a.canonical_form(), fake_result(a, 1));
  // refresh, not duplicate
  cache.insert(a.canonical_form(), fake_result(a, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(a.canonical_form())->point.accepted, 2);
}

TEST(ResultCache, DiskTierSurvivesARestart) {
  const std::string dir = fresh_dir("roundtrip");
  const SimRequest a = req(0.1, 1);
  {
    ResultCache cache(4, dir);
    cache.insert(a.canonical_form(), fake_result(a, 0.75));
  }
  // "Restart": a fresh cache over the same directory; memory is cold, the
  // disk tier revives the entry (and promotes it back into memory).
  ResultCache cache(4, dir);
  const auto hit = cache.lookup(a.canonical_form());
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->point.accepted, 0.75);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  // Second lookup is a pure memory hit.
  ASSERT_TRUE(cache.lookup(a.canonical_form()).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, StaleVersionOnDiskIsIgnored) {
  const std::string dir = fresh_dir("version");
  const SimRequest a = req(0.1, 1);
  {
    ResultCache cache(4, dir);
    cache.insert(a.canonical_form(), fake_result(a, 0.75));
  }
  // Rewrite the stored file as if an older engine version had produced it.
  const std::string path = dir + "/" + a.key() + ".json";
  Json doc = runner::read_json_file(path);
  doc.set("version", "mempool-sim-v0");
  runner::write_json_file(path, doc);

  ResultCache cache(4, dir);
  EXPECT_FALSE(cache.lookup(a.canonical_form()).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptDiskFileDegradesToAMiss) {
  const std::string dir = fresh_dir("corrupt");
  const SimRequest a = req(0.1, 1);
  {
    ResultCache cache(4, dir);
    cache.insert(a.canonical_form(), fake_result(a, 0.75));
  }
  {
    std::ofstream out(dir + "/" + a.key() + ".json", std::ios::trunc);
    out << "{ this is not json";
  }
  ResultCache cache(4, dir);
  EXPECT_FALSE(cache.lookup(a.canonical_form()).has_value());
  EXPECT_GE(cache.stats().disk_errors, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, ZeroByteFileDegradesToAMiss) {
  const std::string dir = fresh_dir("zerobyte");
  const SimRequest a = req(0.1, 1);
  {
    ResultCache cache(4, dir);
    cache.insert(a.canonical_form(), fake_result(a, 0.75));
  }
  {
    std::ofstream out(dir + "/" + a.key() + ".json",
                      std::ios::trunc | std::ios::binary);
  }  // 0 bytes: the classic artifact of a crash between create and write
  ResultCache cache(4, dir);
  EXPECT_FALSE(cache.lookup(a.canonical_form()).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, TruncatedFilesAtEveryLengthDegradeToMisses) {
  const std::string dir = fresh_dir("truncfuzz");
  const SimRequest a = req(0.1, 1);
  {
    ResultCache cache(4, dir);
    cache.insert(a.canonical_form(), fake_result(a, 0.75));
  }
  const std::string path = dir + "/" + a.key() + ".json";
  std::string intact;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    intact = buf.str();
  }
  ASSERT_GT(intact.size(), 16u);
  // A torn write can stop at any byte. Every strict prefix (up to the
  // closing brace) must read as a miss — never a crash, never a partial
  // result.
  for (std::size_t len = 0; len + 2 < intact.size(); ++len) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out.write(intact.data(), static_cast<std::streamsize>(len));
    }
    ResultCache cache(4, dir);
    EXPECT_FALSE(cache.lookup(a.canonical_form()).has_value())
        << "truncation at byte " << len << " served a result";
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, BitFlippedFilesNeverCrashAndMostlyMiss) {
  const std::string dir = fresh_dir("flipfuzz");
  const SimRequest a = req(0.1, 1);
  const SimResult good = fake_result(a, 0.75);
  {
    ResultCache cache(4, dir);
    cache.insert(a.canonical_form(), good);
  }
  const std::string path = dir + "/" + a.key() + ".json";
  std::string intact;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    intact = buf.str();
  }
  // Flip one bit at every offset. The file guards itself with the schema
  // tag, the result version, and an exact echo of the canonical request:
  // corruption anywhere in those (or anywhere that breaks the JSON) is a
  // miss. A flip confined to the result payload digits can survive parsing
  // — the contract under corruption is "miss or a well-formed result,
  // never a crash or a torn read".
  std::size_t misses = 0;
  for (std::size_t off = 0; off < intact.size(); ++off) {
    std::string mutated = intact;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x08);
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    ResultCache cache(4, dir);
    std::optional<SimResult> got;
    EXPECT_NO_THROW(got = cache.lookup(a.canonical_form()))
        << "flip at byte " << off;
    if (!got.has_value()) {
      ++misses;
    } else {
      EXPECT_EQ(got->request_key, good.request_key)
          << "flip at byte " << off << " forged a foreign result";
    }
    // Whatever the flip did, the cache object must stay fully usable.
    cache.insert(a.canonical_form(), good);
    EXPECT_TRUE(cache.lookup(a.canonical_form()).has_value());
  }
  // The guarded regions dominate the file, so the vast majority of flips
  // must be detected.
  EXPECT_GT(misses, intact.size() / 2)
      << "corruption detection has regressed";
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, EvictedEntriesReviveFromDisk) {
  const std::string dir = fresh_dir("revive");
  ResultCache cache(1, dir);  // capacity 1: every insert evicts
  const SimRequest a = req(0.1, 1), b = req(0.2, 1);
  cache.insert(a.canonical_form(), fake_result(a, 1));
  // evicts a from memory, not from disk
  cache.insert(b.canonical_form(), fake_result(b, 2));
  const auto hit = cache.lookup(a.canonical_form());
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->point.accepted, 1);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  std::filesystem::remove_all(dir);
}
