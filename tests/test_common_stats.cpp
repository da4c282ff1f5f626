#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/report.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace mempool {
namespace {

TEST(RunningStat, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanMinMax) {
  RunningStat s;
  for (double v : {3.0, 1.0, 4.0, 1.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 14.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 14.0);
}

TEST(RunningStat, VarianceMatchesTwoPass) {
  RunningStat s;
  const double vals[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  double mean = 0;
  for (double v : vals) mean += v;
  mean /= 8;
  double var = 0;
  for (double v : vals) var += (v - mean) * (v - mean);
  var /= 7;  // sample variance
  for (double v : vals) s.add(v);
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(RunningStat, Reset) {
  RunningStat s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(1.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.7);
  h.add(100.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
}

TEST(Histogram, NegativeClampsToZeroBucket) {
  Histogram h(1.0, 4);
  h.add(-3.0);
  EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(Histogram, QuantileMedianOfUniform) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

// The histogram as it was before its storage grew on demand: every bucket
// allocated up front. The grown histogram must answer exactly like it.
struct DenseHistogram {
  double width;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  uint64_t overflow = 0;

  void add(double x) {
    ++count;
    const auto idx = static_cast<std::size_t>((x < 0 ? 0 : x) / width);
    if (idx >= buckets.size()) {
      ++overflow;
    } else {
      ++buckets[idx];
    }
  }

  double quantile(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const double next = cum + static_cast<double>(buckets[i]);
      if (next >= target) {
        const double frac =
            buckets[i] ? (target - cum) / static_cast<double>(buckets[i]) : 0;
        return (static_cast<double>(i) + frac) * width;
      }
      cum = next;
    }
    return width * static_cast<double>(buckets.size());
  }

  Json to_json() const {
    Json j = Json::object();
    j.set("bucket_width", width);
    std::size_t last = buckets.size();
    while (last > 0 && buckets[last - 1] == 0) --last;
    Json counts = Json::array();
    for (std::size_t i = 0; i < last; ++i) counts.push_back(buckets[i]);
    j.set("counts", std::move(counts));
    j.set("overflow", overflow);
    return j;
  }
};

void expect_same_answers(const Histogram& h, const DenseHistogram& ref) {
  EXPECT_EQ(h.count(), ref.count);
  EXPECT_EQ(h.overflow(), ref.overflow);
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), ref.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(h.to_json().dump(), ref.to_json().dump());
}

TEST(Histogram, GrownStorageAnswersLikeTheDenseHistogram) {
  Rng rng(11);
  for (const double scale : {0.5, 40.0, 400.0}) {  // 400: many overflow
    Histogram h(0.5, 200);
    DenseHistogram ref{0.5, std::vector<uint64_t>(200, 0)};
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.next_double() * scale - 0.25;
      h.add(x);
      ref.add(x);
    }
    expect_same_answers(h, ref);
    EXPECT_LE(h.buckets().size(), h.num_buckets());
  }
}

TEST(Histogram, EverySampleOverflowing) {
  Histogram h(1.0, 1'000'000);
  DenseHistogram ref{1.0, std::vector<uint64_t>(1'000'000, 0)};
  for (const double x : {2e6, 3e6, 5e6}) {
    h.add(x);
    ref.add(x);
  }
  EXPECT_TRUE(h.buckets().empty());  // nothing stored for a wide range
  expect_same_answers(h, ref);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 1e6);
}

TEST(Histogram, AbsorbAndRestoreMatchTheDenseHistogram) {
  Histogram a(1.0, 64), b(1.0, 64);
  DenseHistogram ref{1.0, std::vector<uint64_t>(64, 0)};
  for (const double x : {1.0, 3.5, 3.7, 70.0}) {
    a.add(x);
    ref.add(x);
  }
  for (const double x : {0.2, 50.0, 63.9}) {  // b stores more than a
    b.add(x);
    ref.add(x);
  }
  a.absorb(b);
  expect_same_answers(a, ref);

  Histogram restored(1.0, 64);
  restored.restore(ref.buckets, ref.count, ref.overflow);
  expect_same_answers(restored, ref);
  EXPECT_THROW(restored.restore(std::vector<uint64_t>(63, 0), 0, 0),
               CheckError);

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(a.buckets().empty());
  EXPECT_EQ(a.quantile(0.5), 0.0);
}

TEST(Histogram, BadConstructionThrows) {
  EXPECT_THROW(Histogram(0.0, 10), CheckError);
  EXPECT_THROW(Histogram(1.0, 0), CheckError);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "2345"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2345"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace mempool
