#include <gtest/gtest.h>

#include <type_traits>

#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/packet.hpp"

namespace mempool {
namespace {

// Regression (would compile before the fix): ElasticBuffer used to default
// its move constructor/assignment while the engine's commit list, BufferSink
// adapters, and the wake plumbing hold raw pointers to registered buffers —
// a post-registration move (e.g. a vector reallocation) left the engine
// committing a moved-from shell. The buffer is now pinned; owners use deque
// or reserve-before-emplace containers.
static_assert(!std::is_move_constructible_v<ElasticBuffer<int>>,
              "ElasticBuffer must be pinned: raw pointers are registered");
static_assert(!std::is_move_assignable_v<ElasticBuffer<int>>,
              "ElasticBuffer must be pinned: raw pointers are registered");
static_assert(!std::is_copy_constructible_v<ElasticBuffer<Packet>>);
static_assert(!std::is_copy_assignable_v<ElasticBuffer<Packet>>);

// Every hop copies a Packet into a buffer slot and every switch input is an
// ElasticBuffer<Packet>: their sizes set the fabric's cache footprint.
static_assert(sizeof(Packet) == 32, "Packet grew past 32 bytes");

TEST(ElasticBuffer, PacketBufferFootprintIsPinned) {
  EXPECT_LE(sizeof(ElasticBuffer<Packet>), 224u);
}

TEST(ElasticBuffer, CombinationalPushIsVisibleSameCycle) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 2);
  EXPECT_TRUE(b.empty());
  b.push(42);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.front(), 42);
  EXPECT_EQ(b.pop(), 42);
  EXPECT_TRUE(b.empty());
}

TEST(ElasticBuffer, RegisteredPushVisibleOnlyAfterCommit) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  b.push(7);
  EXPECT_TRUE(b.empty()) << "staged item must not be visible pre-commit";
  EXPECT_EQ(b.size(), 1u) << "but it occupies capacity";
  b.commit();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.pop(), 7);
}

TEST(ElasticBuffer, CapacityBackpressure) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 2);
  EXPECT_TRUE(b.can_accept());
  b.push(1);
  EXPECT_TRUE(b.can_accept());
  b.push(2);
  EXPECT_FALSE(b.can_accept());
  EXPECT_THROW(b.push(3), CheckError);
  b.pop();
  EXPECT_TRUE(b.can_accept());
}

TEST(ElasticBuffer, RegisteredCountsStagedTowardCapacity) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  b.push(1);
  b.commit();
  b.push(2);                      // staged
  EXPECT_FALSE(b.can_accept());   // 1 committed + 1 staged = full
  b.commit();
  EXPECT_FALSE(b.can_accept());
  b.pop();
  EXPECT_TRUE(b.can_accept());
}

TEST(ElasticBuffer, RegisteredSecondPushSameCycleIsError) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 4);
  b.push(1);
  EXPECT_THROW(b.push(2), CheckError);
}

TEST(ElasticBuffer, FifoOrder) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 8);
  for (int i = 0; i < 5; ++i) b.push(i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b.pop(), i);
}

TEST(ElasticBuffer, PopBetweenStageAndCommitKeepsFifoOrder) {
  // The staged item already sits in the ring behind the visible ones; a pop
  // between stage and commit must leave it behind the remaining visible item.
  ElasticBuffer<int> b(BufferMode::kRegistered, 3);
  b.push(1);
  b.commit();
  b.push(2);
  b.commit();
  b.push(3);  // staged
  EXPECT_EQ(b.pop(), 1);
  b.commit();
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.pop(), 2);
  EXPECT_EQ(b.pop(), 3);
  EXPECT_TRUE(b.empty());
}

TEST(ElasticBuffer, StagedItemWrapsTheInlineRing) {
  // Capacity-2 registered buffer driven around its inline ring many times,
  // with the staged slot landing on both ring positions.
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  int next = 0, expect = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    if (b.can_accept()) b.push(next++);
    if (cycle % 3 == 0 && !b.empty()) {
      EXPECT_EQ(b.pop(), expect++);
    }
    b.commit();
  }
  while (!b.empty()) {
    EXPECT_EQ(b.pop(), expect++);
  }
  EXPECT_EQ(expect, next);
}

TEST(ElasticBuffer, FullRegisteredBufferSaveRestoreRoundTrip) {
  ElasticBuffer<Packet> a(BufferMode::kRegistered, 2);
  Packet p;
  p.addr = 0x1234;
  p.data = 0xdeadbeef;
  p.be = 0x3;
  p.op = MemOp::kAmoAdd;
  p.src = 17;
  p.src_tile = 4;
  p.dst_tile = 9;
  p.dst_bank = 11;
  p.dst_row = 77;
  p.tag = 5;
  p.birth = 123456789012ull;
  // Rotate the ring first so the saved items straddle its wrap point.
  a.push(p);
  a.commit();
  (void)a.pop();
  for (int i = 0; i < 2; ++i) {
    Packet q = p;
    q.tag = static_cast<uint16_t>(100 + i);
    a.push(q);
    a.commit();
  }
  ASSERT_FALSE(a.can_accept());
  StateSink sink;
  a.save_state(sink);

  ElasticBuffer<Packet> b(BufferMode::kRegistered, 2);
  StateSource src(sink.data());
  b.load_state(src);
  src.finish();
  EXPECT_EQ(b.size(), 2u);
  EXPECT_FALSE(b.can_accept());
  StateSink again;
  b.save_state(again);
  EXPECT_EQ(again.data(), sink.data()) << "restore re-saves byte-identically";
  for (int i = 0; i < 2; ++i) {
    const Packet q = b.pop();
    EXPECT_EQ(q.tag, 100 + i);
    EXPECT_EQ(q.addr, p.addr);
    EXPECT_EQ(q.data, p.data);
    EXPECT_EQ(q.be, p.be);
    EXPECT_EQ(q.op, p.op);
    EXPECT_EQ(q.src, p.src);
    EXPECT_EQ(q.src_tile, p.src_tile);
    EXPECT_EQ(q.dst_tile, p.dst_tile);
    EXPECT_EQ(q.dst_bank, p.dst_bank);
    EXPECT_EQ(q.dst_row, p.dst_row);
    EXPECT_EQ(q.birth, p.birth);
  }
  // The restored buffer keeps working: stage, commit, pop.
  b.push(p);
  b.commit();
  EXPECT_EQ(b.pop().tag, p.tag);
}

TEST(ElasticBuffer, RestoreBeyondCapacityIsRejected) {
  ElasticBuffer<Packet> deep(BufferMode::kCombinational, 4);
  for (int i = 0; i < 3; ++i) deep.push(Packet{});
  StateSink sink;
  deep.save_state(sink);
  ElasticBuffer<Packet> shallow(BufferMode::kCombinational, 2);
  StateSource src(sink.data());
  EXPECT_THROW(shallow.load_state(src), CheckError);
}

TEST(ElasticBuffer, UnboundedCapacityZero) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(b.can_accept());
    b.push(i);
  }
  EXPECT_EQ(b.size(), 10000u);
}

TEST(ElasticBuffer, UnboundedGrowthIsAmortizedDoubling) {
  // The unbounded fallback must not touch the allocator per push burst: the
  // contiguous ring doubles, so N pushes cost O(log N) growth events — and a
  // drain-and-refill burst of the same depth costs zero.
  ElasticBuffer<int> b(BufferMode::kCombinational, 0);
  EXPECT_EQ(b.storage_reallocs(), 0u);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) b.push(i);
  uint64_t expected = 0;
  for (uint32_t cap = ElasticBuffer<int>::kOverflowInitial; cap < kN; cap <<= 1)
    ++expected;
  EXPECT_EQ(b.storage_reallocs(), expected);  // exactly log2(N/initial) grows
  for (int i = 0; i < kN; ++i) ASSERT_EQ(b.pop(), i);
  // Capacity is retained across a full drain: the next burst is free.
  for (int i = 0; i < kN; ++i) b.push(i);
  EXPECT_EQ(b.storage_reallocs(), expected);
  for (int i = 0; i < kN; ++i) ASSERT_EQ(b.pop(), i);
}

TEST(ElasticBuffer, BoundedDeepBufferNeverReallocates) {
  // Deeper-than-inline but bounded: the ring is sized once at construction.
  ElasticBuffer<int> b(BufferMode::kCombinational, 37);
  for (int round = 0; round < 50; ++round) {
    int pushed = 0;
    while (b.can_accept()) b.push(pushed++);
    EXPECT_EQ(pushed, 37);
    for (int i = 0; i < pushed; ++i) ASSERT_EQ(b.pop(), i);
  }
  EXPECT_EQ(b.storage_reallocs(), 0u);
}

TEST(ElasticBuffer, ArenaBackedOverflowStorage) {
  Arena arena;
  const std::size_t before = arena.bytes_used();
  ElasticBuffer<int> b(BufferMode::kCombinational, 64, &arena);
  EXPECT_GT(arena.bytes_used(), before) << "deep ring storage from the arena";
  for (int i = 0; i < 63; ++i) b.push(i);
  for (int i = 0; i < 63; ++i) ASSERT_EQ(b.pop(), i);
  EXPECT_EQ(b.storage_reallocs(), 0u);
}

TEST(ElasticBuffer, CombinationalPushWakesConsumer) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 2);
  Wakeable consumer;
  consumer.sleep();
  b.set_consumer(&consumer);
  b.push(1);
  EXPECT_TRUE(consumer.awake()) << "visible item must wake the consumer";
}

TEST(ElasticBuffer, RegisteredPushWakesConsumerOnlyAtCommit) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  Wakeable consumer;
  consumer.sleep();
  b.set_consumer(&consumer);
  uint64_t word = 0;
  uint64_t pending = 0;
  b.bind_commit_slot(&word, 0, &pending);
  b.push(7);
  EXPECT_FALSE(consumer.awake()) << "staged item is not visible yet";
  EXPECT_TRUE(b.commit_dirty()) << "staged push marks its dirty bit";
  EXPECT_EQ(pending, 1u) << "and bumps the bound pending counter once";
  b.commit();
  EXPECT_TRUE(consumer.awake()) << "commit makes the item visible";
  EXPECT_EQ(b.pop(), 7);
}

TEST(ElasticBuffer, SustainedFullThroughputAcrossRegisterBoundary) {
  // Capacity-2 registered buffer must sustain one item/cycle: producer pushes
  // before the consumer pops within a cycle (the simulator's request-path
  // evaluation order), like an RTL skid buffer.
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  int produced = 0, consumed = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    if (b.can_accept()) {
      b.push(produced++);
    }
    if (!b.empty()) {
      EXPECT_EQ(b.pop(), consumed++);
    }
    b.commit();
  }
  // After warmup, exactly one item per cycle.
  EXPECT_GE(consumed, 98);
}

}  // namespace
}  // namespace mempool
