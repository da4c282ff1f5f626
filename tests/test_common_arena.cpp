// Arena (common/arena.hpp): bump-allocation alignment and chunk growth,
// reverse-order destructor registry, oversized allocations, standard-chunk
// recycling, and the PinnedVector fixed-capacity container for non-movable
// types.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"

namespace mempool {
namespace {

TEST(Arena, AllocationsAreAlignedAndMonotonicWithinAChunk) {
  Arena a(4096);
  void* p1 = a.allocate(3, 1);
  void* p2 = a.allocate(8, 8);
  void* p3 = a.allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p3) % 64, 0u);
  // Same chunk (small allocations), so addresses increase monotonically —
  // the property the evaluate scan's layout depends on.
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_EQ(a.chunk_count(), 1u);
  EXPECT_EQ(a.allocation_count(), 3u);
  EXPECT_EQ(a.bytes_used(), 3u + 8u + 64u);
}

TEST(Arena, GrowsByChunksAndHonoursOversizedRequests) {
  Arena a(1024);
  for (int i = 0; i < 100; ++i) a.allocate(64, 8);  // 6400B > one chunk
  EXPECT_GE(a.chunk_count(), 2u);
  // A request larger than the chunk size gets its own chunk.
  void* big = a.allocate(10000, 64);
  EXPECT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % 64, 0u);
  // Subsequent small allocations still succeed.
  EXPECT_NE(a.allocate(16, 8), nullptr);
}

TEST(Arena, StandardChunksAreRecycledAcrossArenas) {
  // A standard chunk freed by one arena is the next arena's first chunk, so
  // rebuilding a cluster reuses its predecessor's memory instead of asking
  // malloc again; custom-size and oversized chunks are not pooled.
  void* first = nullptr;
  {
    Arena a;
    first = a.allocate(64, 64);
  }
  Arena b;
  EXPECT_EQ(b.allocate(64, 64), first);
  void* custom = nullptr;
  {
    Arena c(4096);
    custom = c.allocate(64, 64);
  }
  Arena d;
  EXPECT_NE(d.allocate(64, 64), custom);
}

TEST(Arena, RejectsAlignmentAboveOneCacheLine) {
  Arena a;
  EXPECT_THROW(a.allocate(8, 128), CheckError);
  EXPECT_THROW(a.allocate(8, 3), CheckError);  // non-pow2
}

struct DtorOrder {
  explicit DtorOrder(int id, std::vector<int>* log) : id_(id), log_(log) {}
  ~DtorOrder() { log_->push_back(id_); }
  int id_;
  std::vector<int>* log_;
};

TEST(Arena, DestructorsRunInReverseConstructionOrder) {
  std::vector<int> log;
  {
    Arena a;
    a.make<DtorOrder>(1, &log);
    a.make<DtorOrder>(2, &log);
    a.make<DtorOrder>(3, &log);
    EXPECT_TRUE(log.empty());
  }
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
}

TEST(Arena, MakeConstructsUsableObjects) {
  Arena a;
  auto* v = a.make<std::vector<int>>(16, 7);
  ASSERT_EQ(v->size(), 16u);
  EXPECT_EQ((*v)[15], 7);
  int* arr = a.make_array<int>(100);
  for (int i = 0; i < 100; ++i) arr[i] = i;
  EXPECT_EQ(arr[99], 99);
}

// A deliberately non-movable type, like the engine components PinnedVector
// exists to hold.
struct Pinned {
  explicit Pinned(int v) : value(v), self(this) {}
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;
  int value;
  Pinned* self;  // would dangle if the element ever moved
};

TEST(PinnedVector, EmplacesNonMovableTypesAtStableAddresses) {
  PinnedVector<Pinned> pv;
  pv.reserve_exact(8);
  std::vector<Pinned*> addrs;
  for (int i = 0; i < 8; ++i) addrs.push_back(&pv.emplace_back(i));
  ASSERT_EQ(pv.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pv[static_cast<std::size_t>(i)].value, i);
    EXPECT_EQ(&pv[static_cast<std::size_t>(i)], addrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(pv[static_cast<std::size_t>(i)].self, addrs[static_cast<std::size_t>(i)]);
  }
  // Elements are contiguous, unlike a deque.
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(addrs[static_cast<std::size_t>(i)],
              addrs[static_cast<std::size_t>(i - 1)] + 1);
  }
}

TEST(PinnedVector, OverflowAndDoubleReserveAreErrors) {
  PinnedVector<int> pv;
  pv.reserve_exact(2);
  pv.emplace_back(1);
  pv.emplace_back(2);
  EXPECT_THROW(pv.emplace_back(3), CheckError);
  EXPECT_THROW(pv.reserve_exact(4), CheckError);
}

TEST(PinnedVector, ArenaBackedStorageComesFromTheArena) {
  Arena a(1u << 16);
  const std::size_t before = a.bytes_used();
  PinnedVector<Pinned> pv;
  pv.reserve_exact(4, &a);
  EXPECT_GT(a.bytes_used(), before);
  pv.emplace_back(42);
  EXPECT_EQ(pv[0].value, 42);
  // pv destroyed before a: element dtors run, storage reclaimed by the arena.
}

TEST(PinnedVector, DestroysElementsInReverseOrder) {
  std::vector<int> log;
  {
    PinnedVector<DtorOrder> pv;
    pv.reserve_exact(3);
    pv.emplace_back(1, &log);
    pv.emplace_back(2, &log);
    pv.emplace_back(3, &log);
  }
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
}

}  // namespace
}  // namespace mempool
