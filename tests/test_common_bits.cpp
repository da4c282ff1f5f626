#include <gtest/gtest.h>

#include "common/bitutil.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"

namespace mempool {
namespace {

TEST(BitUtil, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(BitUtil, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_exact(1024), 10u);
}

TEST(BitUtil, BitsExtract) {
  EXPECT_EQ(bits(0xDEADBEEF, 0, 4), 0xFu);
  EXPECT_EQ(bits(0xDEADBEEF, 28, 4), 0xDu);
  EXPECT_EQ(bits(0xFF, 4, 0), 0u);
  EXPECT_EQ(bits(0xFFFFFFFF, 0, 32), 0xFFFFFFFFu);
}

TEST(BitUtil, InsertExtractRoundTripProperty) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.next_u64());
    const unsigned lsb = static_cast<unsigned>(rng.next_below(28));
    const unsigned width = 1 + static_cast<unsigned>(rng.next_below(32 - lsb));
    const uint32_t field = static_cast<uint32_t>(rng.next_u64());
    const uint32_t ins = insert_bits(v, lsb, width, field);
    EXPECT_EQ(bits(ins, lsb, width),
              field & (width >= 32 ? 0xFFFFFFFFu : ((1u << width) - 1)));
    // Untouched bits stay.
    if (lsb > 0) {
      EXPECT_EQ(bits(ins, 0, lsb), bits(v, 0, lsb));
    }
  }
}

TEST(BitUtil, SignExtend) {
  EXPECT_EQ(sign_extend(0xFFF, 12), -1);
  EXPECT_EQ(sign_extend(0x7FF, 12), 2047);
  EXPECT_EQ(sign_extend(0x800, 12), -2048);
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
}

TEST(BitUtil, RadixDigit) {
  // 27 = 123 base 4.
  EXPECT_EQ(radix_digit(27, 0, 2), 3u);
  EXPECT_EQ(radix_digit(27, 1, 2), 2u);
  EXPECT_EQ(radix_digit(27, 2, 2), 1u);
}

TEST(BitUtil, AlignUp) {
  EXPECT_EQ(align_up(0, 8), 0u);
  EXPECT_EQ(align_up(1, 8), 8u);
  EXPECT_EQ(align_up(8, 8), 8u);
  EXPECT_EQ(align_up(9, 8), 16u);
}

TEST(BitUtil, FirstSetFromIsARoundRobinPick) {
  // Against the scalar round-robin rule: among the set bits of an n-bit
  // mask, the one with the smallest (i - start) mod n wins.
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t words = 1 + rng.next_below(3);
    const std::size_t n = 64 * (words - 1) + 1 + rng.next_below(64);
    uint64_t mask[3] = {0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_below(4) == 0) mask[i / 64] |= 1ull << (i % 64);
    }
    if (mask[0] == 0 && mask[1] == 0 && mask[2] == 0) mask[0] = 1;
    const std::size_t start = rng.next_below(n);
    std::size_t want = n, best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask[i / 64] >> (i % 64) & 1) == 0) continue;
      const std::size_t dist = (i + n - start) % n;
      if (dist < best) {
        best = dist;
        want = i;
      }
    }
    ASSERT_EQ(first_set_from(mask, words, start), want)
        << "words " << words << " n " << n << " start " << start;
  }
}

TEST(FixedPoint, RoundTrip) {
  EXPECT_EQ(to_fixed(1.0, 14), 1 << 14);
  EXPECT_EQ(to_fixed(-1.0, 14), -(1 << 14));
  EXPECT_NEAR(from_fixed(to_fixed(0.7071, 14), 14), 0.7071, 1e-4);
}

TEST(FixedPoint, MulMatchesWideArithmetic) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int32_t a = static_cast<int32_t>(rng.next_u64());
    const int32_t b = static_cast<int32_t>(rng.next_below(1 << 15)) - (1 << 14);
    const int64_t wide = static_cast<int64_t>(a) * b;
    EXPECT_EQ(fx_mul(a, b, 14), static_cast<int32_t>(wide >> 14));
  }
}

}  // namespace
}  // namespace mempool
