#pragma once
// Small constexpr bit-manipulation helpers used by the address map, the
// scrambler, the butterfly-network index arithmetic and the switches'
// round-robin arbiters.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace mempool {

/// True iff @p x is a power of two (0 is not).
constexpr bool is_pow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// floor(log2(x)) for x > 0.
constexpr unsigned log2_floor(uint64_t x) {
  unsigned r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// log2 of a power of two (exact).
constexpr unsigned log2_exact(uint64_t x) { return log2_floor(x); }

/// Extract @p width bits of @p v starting at bit @p lsb.
constexpr uint32_t bits(uint32_t v, unsigned lsb, unsigned width) {
  return width == 0 ? 0u
                    : (v >> lsb) & (width >= 32 ? 0xFFFFFFFFu : ((1u << width) - 1u));
}

/// Insert the low @p width bits of @p field into @p v at bit @p lsb.
constexpr uint32_t insert_bits(uint32_t v, unsigned lsb, unsigned width, uint32_t field) {
  const uint32_t mask = width >= 32 ? 0xFFFFFFFFu : ((1u << width) - 1u);
  return (v & ~(mask << lsb)) | ((field & mask) << lsb);
}

/// Sign-extend the low @p width bits of @p v to 32 bits.
constexpr int32_t sign_extend(uint32_t v, unsigned width) {
  const uint32_t m = 1u << (width - 1);
  return static_cast<int32_t>(((v & ((width >= 32) ? 0xFFFFFFFFu : ((1u << width) - 1u))) ^ m) - m);
}

/// Digit @p i (0 = least significant) of @p v in base 2^digit_bits.
constexpr uint32_t radix_digit(uint32_t v, unsigned i, unsigned digit_bits) {
  return bits(v, i * digit_bits, digit_bits);
}

/// Round @p v up to the next multiple of @p align (align must be pow2).
constexpr uint32_t align_up(uint32_t v, uint32_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// Round-robin grant over a request mask of @p words 64-bit words: the index
/// of the first set bit at or after @p start, wrapping around to bit 0. The
/// mask must have at least one bit set and @p start must lie inside it.
constexpr std::size_t first_set_from(const uint64_t* mask, std::size_t words,
                                     std::size_t start) {
  const std::size_t sw = start / 64;
  const uint64_t tail = mask[sw] & (~uint64_t{0} << (start % 64));
  if (tail != 0) {
    return sw * 64 + static_cast<std::size_t>(std::countr_zero(tail));
  }
  for (std::size_t k = 1; k <= words; ++k) {
    const std::size_t w = (sw + k) % words;
    if (mask[w] != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(mask[w]));
    }
  }
  return start;  // unreachable for a non-empty mask
}

}  // namespace mempool
