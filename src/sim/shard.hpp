#pragma once
// Sharded (multi-threaded) execution support for the cycle engine.
//
// The component graph is partitioned into shards along the fabric's *group*
// boundaries (reported by the FabricTopology plugin): MemPool's hierarchy
// guarantees that every link crossing a group passes through a registered
// elastic buffer, so no combinational path — and therefore no intra-cycle
// effect — ever crosses a shard. Each cycle then runs as two parallel phases
// separated by a barrier:
//
//   evaluate  each shard fires its own timers and scans its own segment of
//             the wake bitset, evaluating components exactly like the
//             sequential active engine does within that subsequence.
//             Registered pushes whose target buffer lives in another shard
//             are handed off through a lock-free SPSC ring (one per directed
//             shard pair, acquire/release only) instead of marking the
//             consumer shard's commit-dirty segment; pops from a
//             shard-boundary buffer defer the producer-visible occupancy
//             refresh (see ElasticBuffer) to the commit phase.
//   commit    each shard scans its own segment of the commit-dirty bitset
//             (slot order), then drains the rings addressed to it in
//             ascending source-shard order. Commits of distinct buffers are
//             independent and the only shared words (wake flags, occupancy
//             masks) are combined with idempotent ORs, so any fixed order is
//             bit-identical to the sequential engine's commits.
//
// Determinism is structural, not best-effort: the per-shard evaluation order
// is the sequential engine's order restricted to the shard, cross-shard
// effects become visible only at the commit barrier (exactly when the
// sequential engine's commit would publish them), and a shard-boundary
// buffer's backpressure is judged against a start-of-cycle snapshot — which
// is precisely what the sequential engine's producer observes, because every
// cross-shard edge points forward in the evaluation order (the producer
// phase runs before the consumer network's phase). Sharded results are
// therefore bit-identical to the sequential active engine for every
// registered topology, kernel run, and seed; tests/test_sim_equivalence.cpp
// asserts this across FabricRegistry::names() × sim-thread counts.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/spsc_ring.hpp"
#include "sim/activity.hpp"

namespace mempool {

class Component;
struct ClusterConfig;

/// Bucketed timer wheel with structure-of-arrays storage: entries live in
/// one contiguous pool chained per slot through indices, instead of one
/// heap-allocated vector per slot. Order within a slot is irrelevant —
/// firing is an idempotent wake() OR — so entries are chained LIFO and
/// recycled through a free list; the steady state allocates nothing.
class TimerWheel {
 public:
  static constexpr uint64_t kWindow = 512;  ///< Slot span (power of two).

  void arm(uint64_t cycle, Wakeable* w) {
    const auto slot = static_cast<uint32_t>(cycle & (kWindow - 1));
    int32_t e;
    if (free_head_ >= 0) {
      e = free_head_;
      free_head_ = pool_[static_cast<uint32_t>(e)].next;
    } else {
      e = static_cast<int32_t>(pool_.size());
      pool_.push_back({});
    }
    pool_[static_cast<uint32_t>(e)] = {w, head_[slot]};
    head_[slot] = e;
  }

  /// Wake every entry parked in @p cycle's slot; returns how many fired.
  uint64_t fire(uint64_t cycle) {
    const auto slot = static_cast<uint32_t>(cycle & (kWindow - 1));
    int32_t e = head_[slot];
    if (e < 0) return 0;
    uint64_t n = 0;
    head_[slot] = -1;
    while (e >= 0) {
      Entry& entry = pool_[static_cast<uint32_t>(e)];
      entry.w->wake();
      const int32_t next = entry.next;
      entry.next = free_head_;
      free_head_ = e;
      e = next;
      ++n;
    }
    return n;
  }

  bool slot_empty(uint64_t cycle) const {
    return head_[cycle & (kWindow - 1)] < 0;
  }

 private:
  struct Entry {
    Wakeable* w = nullptr;
    int32_t next = -1;
  };
  std::vector<Entry> pool_;
  int32_t free_head_ = -1;
  std::array<int32_t, kWindow> head_ = [] {
    std::array<int32_t, kWindow> h{};
    h.fill(-1);
    return h;
  }();
};

/// Which scheduler steps the engine: dense = evaluate everything (the
/// equivalence oracle), active = the sequential activity-driven scheduler,
/// sharded = activity-driven with the component graph partitioned into
/// per-group shards stepped in parallel. All three are bit-identical.
enum class EngineMode : uint8_t { kActive, kDense, kSharded };

const char* engine_mode_name(EngineMode m);

/// How one cluster is stepped: the scheduler and, for kSharded, how many
/// threads step its shards (the caller included; 1 = every shard inline on
/// the caller, still bit-identical).
struct EnginePlan {
  EngineMode mode = EngineMode::kActive;
  unsigned threads = 1;

  bool operator==(const EnginePlan&) const = default;
};

/// Smallest cluster the sharded engine steps. Whole-process wall time of one
/// traffic_explorer point (4-CPU host, Release, 3 runs each, identical
/// output): at TopH2 (1024 cores) λ=0.33 active takes 3.60-4.01 s and
/// sharded on 4 threads 1.48-1.84 s (2.3x at the medians); at TopH
/// (256 cores) λ=0.33 sharded gains nothing (0.38-0.45 s against
/// 0.33-0.47 s), and at λ=0.05 it loses at every thread count (ROADMAP
/// item 3). On one thread sharding has nothing to win and measures level
/// with active (10 alternating pairs each: a TopH2 λ=0.05 point 0.73-1.04 s
/// active against 0.67-1.20 s sharded, a 4-worker TopH2 sweep 13.0-15.3 s
/// against 12.1-15.5 s, sharded slower in 5 of 10 pairs both times), so a
/// point without a second thread runs active.
inline constexpr uint32_t kShardedMinCores = 1024;

/// The engine for one traffic point of @p cfg while @p concurrent points
/// share the host: the point's budget is ThreadPool::default_threads() /
/// concurrent. kSharded on min(budget, the fabric's shard count) threads
/// when the cluster has kShardedMinCores cores or more and the budget is at
/// least 2; kActive (one thread) otherwise. Defined in
/// core/cluster_config.cpp, which knows the fabric's partition.
EnginePlan plan_engine(const ClusterConfig& cfg, unsigned concurrent = 1);

/// Per-shard working set of the sharded engine. Everything a shard's thread
/// touches while evaluating lives here (or in the components themselves), so
/// the parallel phases share no mutable state except the explicitly
/// synchronized handoffs described above.
struct ShardLane {
  uint32_t id = 0;

  // --- wake bitset segment ---------------------------------------------------
  /// Word range [word_begin, word_end) of the engine's packed flag array;
  /// shard segments are cache-line aligned so two shards never write the
  /// same line.
  uint32_t word_begin = 0;
  uint32_t word_end = 0;
  /// slots[(w - word_begin) * 64 + b] is the component behind flag bit b of
  /// word w (nullptr for padding bits).
  std::vector<Component*> slots;

  // --- commit staging --------------------------------------------------------
  /// Word range [dirty_begin, dirty_end) of the engine's packed commit-dirty
  /// bitset assigned to this shard (cache-line aligned like the wake
  /// segments); cslots maps its bits back to clocked elements in
  /// registration order.
  uint32_t dirty_begin = 0;
  uint32_t dirty_end = 0;
  std::vector<Clocked*> cslots;
  /// Elements marked dirty since the last commit scan (bound as the dirty
  /// counter of every clocked element registered to this shard). Written by
  /// this shard's evaluate thread (or the leader between cycles), read by
  /// this shard's commit phase — never concurrently.
  uint64_t dirty_pending = 0;

  /// outbox_row[d]: the lock-free SPSC ring carrying shard-boundary buffers
  /// staged by this shard toward consumer shard d (this shard's row of the
  /// engine-owned S×S ring matrix). The producer side runs on this shard's
  /// evaluate thread, the consumer side on shard d's commit thread; rings
  /// are sized at elaboration from the boundary registry, so a full ring is
  /// a model bug, not backpressure.
  SpscRing<Clocked*>* outbox_row = nullptr;

  void push_cross(uint32_t consumer_shard, Clocked* c) {
    const bool ok = outbox_row[consumer_shard].try_push(c);
    MEMPOOL_CHECK_MSG(ok, "cross-shard ring " << id << "->" << consumer_shard
                                              << " overflowed its "
                                                 "elaboration-time capacity");
  }

  /// Shard-boundary buffers this shard popped from this cycle; their
  /// producer-visible occupancy snapshot is refreshed in the commit phase.
  std::vector<Clocked*> drained;

  // --- timers ----------------------------------------------------------------
  static constexpr uint64_t kTimerWindow = TimerWheel::kWindow;
  TimerWheel wheel;
  using Timer = std::pair<uint64_t, Wakeable*>;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> far;
  uint64_t armed = 0;

  // --- per-cycle results (read by the leader after the barrier) --------------
  bool worked = false;
  uint64_t evaluations = 0;
  uint64_t commits = 0;

  // --- per-cycle profiling busy times (Engine::set_profile only) -------------
  /// This cycle's wall-clock ns spent in the lane's evaluate phase, commit
  /// scan, and ring-drain/snapshot-sync work. Written by the lane's thread,
  /// read by the leader after the barrier; untouched when profiling is off.
  uint64_t prof_eval_ns = 0;
  uint64_t prof_commit_ns = 0;
  uint64_t prof_drain_ns = 0;
};

namespace detail {
/// The shard the current thread is evaluating, nullptr outside a sharded
/// phase. Inline thread_local so the elastic-buffer hot paths read it without
/// a cross-TU call.
inline thread_local ShardLane* t_shard_lane = nullptr;
}  // namespace detail

/// The thread that is currently evaluating a shard (set by the engine around
/// each parallel phase). ElasticBuffer's hot paths use this to route staged
/// commits into the evaluating shard's queue/mailboxes without knowing which
/// engine — or how many concurrently simulating engines — they belong to.
/// nullptr whenever no sharded evaluation is in flight on this thread.
inline ShardLane* current_shard_lane() { return detail::t_shard_lane; }

/// Scoped setter used by the engine; restores the previous value so nested
/// engines (a sharded simulation inside a sweep worker) cannot leak state.
class ShardLaneScope {
 public:
  explicit ShardLaneScope(ShardLane* lane) : prev_(detail::t_shard_lane) {
    detail::t_shard_lane = lane;
  }
  ~ShardLaneScope() { detail::t_shard_lane = prev_; }
  ShardLaneScope(const ShardLaneScope&) = delete;
  ShardLaneScope& operator=(const ShardLaneScope&) = delete;

 private:
  ShardLane* prev_;
};

/// Executor the sharded engine hands its two per-cycle phases to. run() must
/// invoke fn(s) exactly once for every s in [0, n) — possibly concurrently —
/// and return only when all invocations completed, with their effects
/// visible to the caller (a full barrier). The caller's thread may
/// participate. runner::ShardGang is the production implementation (a
/// reusable cycle barrier on the ThreadPool); passing no executor runs the
/// shards sequentially on the calling thread, which is bit-identical.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;
  virtual void run(std::size_t n, const std::function<void(std::size_t)>& fn) = 0;
  /// Worker threads this executor can bring to bear (1 = caller only).
  virtual unsigned threads() const { return 1; }
};

}  // namespace mempool
