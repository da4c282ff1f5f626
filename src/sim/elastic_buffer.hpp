#pragma once
// Elastic-buffer flow control, the basic storage element of MemPool's
// interconnect ("An optional elastic buffer can be inserted at each output of
// the switch ... to break any combinational paths crossing the switch",
// Section III-A, after Michelogiannakis et al.).
//
// Two modes:
//  * kCombinational — a push is visible to the consumer within the same
//    cycle (the simulator evaluates components in topological order, so a
//    packet can traverse an arbitrarily long combinational switch chain in
//    one cycle, exactly like a ripple of valid signals in RTL).
//  * kRegistered — a push lands in a staging slot and becomes visible only
//    after the clock edge (Engine::step commits it). This models the
//    register boundaries drawn dashed in Figures 2 and 3 of the paper; each
//    registered buffer on a path adds exactly one cycle.
//
// Capacity 2 is the default: like a hardware skid buffer it sustains one
// packet per cycle throughput even though the 'ready' signal is derived from
// the pre-drain occupancy.
//
// Storage: every item — visible or staged — lives in one power-of-two ring
// addressed through slot(i) with free-running indices. Bounded buffers up to
// kInlineCapacity (every fabric skid buffer) use a ring inside the object, so
// a buffer is a few contiguous cache lines and the hot path never chases a
// pointer off the object; unbounded buffers (capacity 0, the ideal TopX bank
// queues) and deeper ones use a heap- or arena-backed ring. Bounded deep
// rings are sized once at construction; unbounded rings grow by amortized
// doubling (never per push), so the hot path stays allocation-free —
// storage_reallocs() counts the growth events and is pinned by a test.
//
// Staging in the ring: a registered push writes slot(tail_) and commit only
// bumps count_, so no item is copied twice. tail_ is written only by the
// producer (push), head_ and count_ only by the consumer (front/pop) and the
// commit phase. Under the sharded engine a boundary producer judges space by
// snap_count_, the start-of-cycle occupancy, so slot(tail_) lies past every
// slot the consumer can read or pop in the same cycle and the two threads
// never touch the same item or index.
//
// Activity plumbing: the component that owns this buffer as an input sets
// itself as the consumer; pushes (combinational) and commits (registered)
// wake it so the activity-driven engine evaluates it exactly when a packet
// is visible. Registered buffers mark their engine-owned commit-dirty bit
// when staged (Clocked::mark_commit_dirty), so the commit phase word-scans
// a packed bitset and only touches dirty buffers. An optional occupancy bit
// mirrors "holds a visible item" into a switch-owned mask for sparse input
// scans.

#include <array>
#include <cstdint>
#include <new>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "sim/activity.hpp"
#include "sim/shard.hpp"
#include "sim/snapshot.hpp"

#if defined(MEMPOOL_DRC)
#include <sstream>

#include "sim/drc_runtime.hpp"
#endif

namespace mempool {

enum class BufferMode : uint8_t { kCombinational, kRegistered };

/// Head-item stringification for the stall watchdog's liveness report.
/// Payload types opt in by providing an overload findable by ADL (see the
/// Packet overload in sim/packet.hpp); everything else reports no detail.
template <typename T>
inline std::string liveness_summary(const T& /*item*/) {
  return {};
}

template <typename T>
class ElasticBuffer final : public Clocked {
 public:
  /// Capacities up to this use the inline ring (sized to the fabric's
  /// capacity-2 skid buffers); 0 (unbounded) and deeper buffers use an
  /// out-of-object ring. A power of two, so one mask addresses both.
  static constexpr std::size_t kInlineCapacity = 2;
  static_assert((kInlineCapacity & (kInlineCapacity - 1)) == 0);

  /// Unbounded rings start here and double on demand.
  static constexpr uint32_t kOverflowInitial = 8;

  /// @param mode     registered (1-cycle) or combinational (0-cycle) input.
  /// @param capacity max occupancy including the staged item; 0 = unbounded
  ///                 (used only by the ideal TopX fabric's bank queues).
  /// @param arena    when given, the overflow ring's *initial* storage comes
  ///                 from this arena (growth of unbounded rings falls back to
  ///                 the heap; the abandoned arena block is reclaimed when
  ///                 the arena dies). Elaboration-time only.
  explicit ElasticBuffer(BufferMode mode = BufferMode::kCombinational,
                         std::size_t capacity = 2, Arena* arena = nullptr)
      : capacity_(static_cast<uint32_t>(capacity)), mode_(mode) {
    MEMPOOL_CHECK(capacity <= (std::size_t{1} << 31));
    if (capacity_ == 0 || capacity_ > kInlineCapacity) {
      // Bounded deep buffers get their exact power-of-two once and never
      // grow; unbounded ones start small and double.
      uint32_t cap = kOverflowInitial;
      if (capacity_ != 0) {
        cap = 2;
        while (cap < capacity_) cap <<= 1;
      }
      slots_ = alloc_ring(cap, arena, &ring_heap_);
      mask_ = cap - 1;
    }
  }

  ~ElasticBuffer() override {
    if (slots_ != ring_.data()) release_ring(slots_, mask_ + 1, ring_heap_);
  }

  // Non-copyable and non-movable: the engine's commit list, the switches'
  // BufferSink adapters, and the wake plumbing all hold raw pointers to a
  // registered buffer. A post-registration move (e.g. a vector reallocation)
  // would leave those pointers committing / waking a moved-from shell, so
  // moving is a construction-order bug by definition — owners use deque or
  // reserve-before-emplace containers.
  ElasticBuffer(const ElasticBuffer&) = delete;
  ElasticBuffer& operator=(const ElasticBuffer&) = delete;
  ElasticBuffer(ElasticBuffer&&) = delete;
  ElasticBuffer& operator=(ElasticBuffer&&) = delete;

  /// Activity hookup: @p consumer is woken whenever an item becomes visible
  /// (push for combinational buffers, commit for registered ones). @p name
  /// identifies the consumer in diagnostics (pass name().c_str(); components
  /// are non-movable, so the pointer stays valid). Rebinding to a *different*
  /// consumer fails loudly: a second set_consumer is always a wiring bug —
  /// the first consumer would silently stop being woken (rebinding the same
  /// consumer is idempotent and allowed).
  void set_consumer(Wakeable* consumer, const char* name = nullptr) {
    MEMPOOL_CHECK_MSG(
        consumer_ == nullptr || consumer_ == consumer,
        "elastic buffer already has consumer '"
            << consumer_name() << "'; rebinding it to '"
            << (name != nullptr ? name : "?")
            << "' would silently orphan the first consumer's wake plumbing");
    consumer_ = consumer;
    if (name != nullptr) consumer_name_ = name;
  }

  /// Diagnostic name of the bound consumer ("?" when never named).
  const char* consumer_name() const {
    return consumer_name_ != nullptr ? consumer_name_ : "?";
  }

  /// Occupancy hookup: mirror "the FIFO holds a visible item" into bit
  /// @p bit of @p word. Switches keep one occupancy word over their input
  /// buffers so a sparse evaluate iterates set bits instead of touching
  /// every (cache-cold) buffer. @p word must outlive the buffer's last
  /// push/pop/commit.
  void bind_occupancy_bit(uint64_t* word, unsigned bit) {
    occ_word_ = word;
    occ_mask_ = 1ull << bit;
    if (count_ == 0) {
      *word &= ~occ_mask_;
    } else {
      *word |= occ_mask_;
    }
  }

  /// Shard hookup: this buffer sits on a shard boundary — its producer
  /// evaluates in another shard than @p consumer_shard, the shard of its
  /// consumer. Only registered buffers qualify (a combinational push would be
  /// an intra-cycle cross-shard effect, which the sharded engine's
  /// determinism argument forbids — this check *is* the structural
  /// assertion). From now on the producer's can_accept() judges occupancy
  /// against a snapshot that is refreshed only at commit edges: under the
  /// sequential engines the snapshot tracks count_ exactly (every mutation
  /// refreshes it), under the sharded engine pops defer the refresh to the
  /// commit barrier — reproducing what the sequential producer observes,
  /// since it always evaluates before the consuming network's phase.
  void mark_shard_boundary(uint32_t consumer_shard) {
    MEMPOOL_CHECK_MSG(mode_ == BufferMode::kRegistered,
                      "combinational paths must not cross a shard boundary "
                      "(buffer consumed by '"
                          << consumer_name() << "' cannot become a boundary "
                          << "into shard " << consumer_shard
                          << "; insert a registered stage)");
    boundary_ = true;
    consumer_shard_ = consumer_shard;
    snap_count_ = count_;
  }
  bool shard_boundary() const { return boundary_; }

  /// 'ready' as the upstream switch sees it this cycle.
  bool can_accept() const {
    if (capacity_ == 0) return true;
    const uint32_t visible = boundary_ ? snap_count_ : count_;
    return visible + (staged_valid_ ? 1u : 0u) < capacity_;
  }

  /// Push one item; caller must have checked can_accept().
  void push(const T& v) {
    drc_check_push();
    MEMPOOL_CHECK(can_accept());
    if (mode_ == BufferMode::kRegistered) {
      // At most one push per cycle per buffer: a buffer is fed by exactly one
      // switch output, which grants at most one packet per cycle.
      MEMPOOL_CHECK(!staged_valid_);
      // can_accept() (or, unbounded, the free slot kept at every commit)
      // guarantees slot(tail_) is not a visible item.
      slot(tail_++) = v;
      staged_valid_ = true;
      ShardLane* lane = current_shard_lane();
      if (lane != nullptr && boundary_ && consumer_shard_ != lane->id) {
        // Sharded evaluate phase, push crossing the boundary: hand the buffer
        // to the consumer shard through the producer's SPSC ring (the
        // consumer's commit phase drains it). Marking the dirty bit instead
        // would write the consumer shard's bitset segment mid-evaluate — a
        // data race with that shard's own staging.
        lane->push_cross(consumer_shard_, this);
      } else {
        // Same-shard (or sequential) staging: this buffer's dirty bit lives
        // in the evaluating shard's (or the global) segment.
        mark_commit_dirty();
      }
    } else {
      enqueue(v);
      *occ_word_ |= occ_mask_;
      if (consumer_ != nullptr) consumer_->wake();
    }
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_ + (staged_valid_ ? 1u : 0u); }

  const T& front() const {
    drc_check_read("front");
    MEMPOOL_CHECK(count_ > 0);
    return slot(head_);
  }

  T pop() {
    drc_check_read("pop");
    MEMPOOL_CHECK(count_ > 0);
    T v = slot(head_++);
    ++drains_;
    --count_;
    if (count_ == 0) *occ_word_ &= ~occ_mask_;
    if (boundary_) {
      if (ShardLane* lane = current_shard_lane()) {
        // Consumer shard draining across the boundary: the producer keeps
        // seeing the start-of-cycle occupancy until the commit barrier.
        if (!drain_marked_) {
          drain_marked_ = true;
          lane->drained.push_back(this);
        }
      } else {
        snap_count_ = count_;  // sequential engines: snapshot tracks exactly
      }
    }
    return v;
  }

  /// Clock edge: the staged item, already in slot(head_ + count_), becomes
  /// visible (and the consumer must look).
  void commit() override {
    if (staged_valid_) {
      staged_valid_ = false;
      ++count_;
      keep_free_slot();
      *occ_word_ |= occ_mask_;
      if (consumer_ != nullptr) consumer_->wake();
    }
    if (boundary_) shard_sync();
  }

  /// Commit-barrier refresh of the producer-visible occupancy snapshot.
  void shard_sync() override {
    snap_count_ = count_;
    drain_marked_ = false;
  }

  BufferMode mode() const { return mode_; }
  bool registered_mode() const { return mode_ == BufferMode::kRegistered; }
  std::size_t capacity() const { return capacity_; }

  /// Checkpoint: serialize the visible FIFO contents and the drain counter.
  /// Item payloads opt in via ADL overloads `save_item(StateSink&, const T&)`
  /// / `load_item(StateSource&, T*)`, mirroring liveness_summary (the Packet
  /// overloads live in sim/packet.hpp). Only callable at a quiesced cycle —
  /// a staged item means the owner saved mid-cycle, which is a bug.
  void save_state(StateSink& s) const {
    MEMPOOL_CHECK_MSG(!staged_valid_,
                      "buffer checkpoint requires a quiesced cycle (item "
                      "still staged; consumer '"
                          << consumer_name() << "')");
    s.u32(count_);
    s.u64(drains_);
    for (uint32_t i = 0; i < count_; ++i) save_item(s, slot(head_ + i));
  }

  /// Restore into a freshly built (empty) buffer. Re-derives the occupancy
  /// bit and the producer-visible snapshot; the consumer is not woken here —
  /// every component starts awake after a rebuild, so visibility is already
  /// guaranteed for the first post-restore cycle.
  void load_state(StateSource& s) {
    MEMPOOL_CHECK_MSG(count_ == 0 && !staged_valid_,
                      "buffer restore requires a freshly built buffer");
    const uint32_t n = s.u32();
    MEMPOOL_CHECK_MSG(capacity_ == 0 || n <= capacity_,
                      "buffer restore of " << n << " items into capacity "
                                           << capacity_ << " (consumer '"
                                           << consumer_name() << "')");
    drains_ = s.u64();
    for (uint32_t i = 0; i < n; ++i) {
      T v{};
      load_item(s, &v);
      enqueue(v);
    }
    if (count_ > 0) {
      *occ_word_ |= occ_mask_;
    } else {
      *occ_word_ &= ~occ_mask_;
    }
    snap_count_ = count_;
  }

  /// DRC self-description (the one meaningful Clocked::describe).
  void describe(GraphVisitor& v) const override {
    BufferDecl decl;
    decl.registered = mode_ == BufferMode::kRegistered;
    decl.shard_boundary = boundary_;
    decl.consumer_shard = consumer_shard_;
    decl.consumer = consumer_;
    decl.capacity = capacity_;
    v.buffer_info(decl);
  }

  /// Progress snapshot for the engine's stall watchdog. Read single-threaded
  /// between cycles (the probe runs on the leader before any shard phase),
  /// so plain member reads are safe; the head summary only looks at visible
  /// items (staged ones have no committed position yet).
  LivenessState liveness() const override {
    LivenessState s;
    s.is_buffer = true;
    s.occupancy = size();
    s.capacity = capacity_;
    s.drains = drains_;
    s.consumer = consumer_name();
    if (count_ > 0) s.head = liveness_summary(slot(head_));
    return s;
  }

  /// Growth events of the overflow ring (0 for inline/bounded-deep buffers);
  /// pinned by a test so unbounded pushes stay off the allocator.
  uint64_t storage_reallocs() const { return ring_reallocs_; }

  /// MEMPOOL_DRC: bind the home shard (the consumer's shard as resolved by
  /// the static DRC walk) that every eval-phase access is checked against.
  void drc_bind_shard(int32_t home_shard) override {
#if defined(MEMPOOL_DRC)
    drc_home_ = home_shard;
#else
    (void)home_shard;
#endif
  }

 private:
#if defined(MEMPOOL_DRC)
  // Runtime shard-race checks (see sim/drc_runtime.hpp for the contract).
  // Accesses outside an evaluate phase (current_eval_shard() < 0) and buffers
  // the checker never armed (drc_home_ < 0) are exempt.
  void drc_check_read(const char* op) const {
    const int32_t cur = drc::current_eval_shard();
    if (cur < 0 || drc_home_ < 0 || cur == drc_home_) return;
    std::ostringstream os;
    os << "shard-race: " << op << " on buffer (consumer '" << consumer_name()
       << "', home shard " << drc_home_ << ") from eval shard " << cur;
    drc::report_race(os.str());
  }
  void drc_check_push() const {
    const int32_t cur = drc::current_eval_shard();
    if (cur < 0 || drc_home_ < 0 || cur == drc_home_) return;
    // A cross-shard push is legal only through a registered buffer marked as
    // a shard boundary whose declared consumer shard matches the home shard.
    if (mode_ == BufferMode::kRegistered && boundary_ &&
        static_cast<int32_t>(consumer_shard_) == drc_home_) {
      return;
    }
    std::ostringstream os;
    os << "shard-race: push into "
       << (mode_ == BufferMode::kRegistered ? "registered" : "combinational")
       << (boundary_ ? " boundary" : " non-boundary") << " buffer (consumer '"
       << consumer_name() << "', home shard " << drc_home_
       << ") from eval shard " << cur;
    drc::report_race(os.str());
  }
#else
  void drc_check_read(const char* /*op*/) const {}
  void drc_check_push() const {}
#endif

  /// The one ring index computation: free-running index -> storage slot.
  T& slot(uint32_t i) { return slots_[i & mask_]; }
  const T& slot(uint32_t i) const { return slots_[i & mask_]; }

  static T* alloc_ring(uint32_t cap, Arena* arena, bool* heap_owned) {
    void* storage =
        arena != nullptr
            ? arena->allocate(sizeof(T) * cap, alignof(T))
            : ::operator new(sizeof(T) * cap, std::align_val_t(alignof(T)));
    *heap_owned = arena == nullptr;
    T* ring = static_cast<T*>(storage);
    for (uint32_t i = 0; i < cap; ++i) new (ring + i) T{};
    return ring;
  }

  static void release_ring(T* ring, uint32_t cap, bool heap_owned) {
    for (uint32_t i = cap; i > 0; --i) ring[i - 1].~T();
    if (heap_owned) ::operator delete(ring, std::align_val_t(alignof(T)));
    // Arena-backed storage is reclaimed when the arena dies.
  }

  /// Unbounded buffers only: keep one free slot past tail_ whenever an item
  /// becomes visible, so the next staged push always has room without
  /// growing — growth then only happens on the consumer's side (commit or a
  /// same-thread combinational push), never under a cross-shard producer.
  void keep_free_slot() {
    if (capacity_ == 0 && tail_ - head_ > mask_) grow_overflow();
  }

  /// Double the ring. Growth always goes to the heap — it can happen
  /// mid-simulation, where the single-threaded elaboration arena must not be
  /// touched.
  void grow_overflow() {
    const uint32_t new_cap = (mask_ + 1) * 2;
    const uint32_t n = tail_ - head_;
    bool new_heap = false;
    T* fresh = alloc_ring(new_cap, nullptr, &new_heap);
    for (uint32_t i = 0; i < n; ++i) fresh[i] = slot(head_ + i);
    release_ring(slots_, mask_ + 1, ring_heap_);
    slots_ = fresh;
    mask_ = new_cap - 1;
    ring_heap_ = new_heap;
    head_ = 0;
    tail_ = n;
    ++ring_reallocs_;
  }

  /// Make @p v visible at the tail (combinational push, restore).
  void enqueue(const T& v) {
    slot(tail_++) = v;
    ++count_;
    keep_free_slot();
  }

  // Hot control words first: everything a push, pop or commit touches sits
  // in the object's first two cache lines, next to the inline ring.
  T* slots_ = ring_.data();  ///< ring_ or the out-of-object ring.
  uint32_t mask_ = kInlineCapacity - 1;  ///< Ring size - 1 (power of two).
  uint32_t head_ = 0;   ///< Consumer: free-running index of the front item.
  uint32_t count_ = 0;  ///< Consumer: visible items (staged excluded).
  uint32_t tail_ = 0;   ///< Producer: free-running index of the next push.
  uint32_t snap_count_ = 0;  ///< Producer-visible count (== count_ unless a
                             ///< sharded cycle is between pop and barrier).
  uint32_t capacity_;   ///< Max occupancy including the staged item; 0 =
                        ///< unbounded.
  uint64_t* occ_word_ = &own_occ_;
  uint64_t occ_mask_ = 1;
  Wakeable* consumer_ = nullptr;
  uint64_t drains_ = 0;  ///< Lifetime pop() count (watchdog progress metric).
  BufferMode mode_;
  bool staged_valid_ = false;  ///< slot(tail_ - 1) holds an uncommitted push.
  bool boundary_ = false;      ///< Shard-boundary register (snapshot mode).
  bool drain_marked_ = false;  ///< Already on the consumer lane's drain list.
  bool ring_heap_ = false;     ///< Out-of-object ring is heap (vs arena).
  std::array<T, kInlineCapacity> ring_{};
  // Cold: wiring, diagnostics and checkpoint-only state.
  const char* consumer_name_ = nullptr;
  uint64_t ring_reallocs_ = 0;  ///< Growth events (see storage_reallocs()).
  uint64_t own_occ_ = 0;        ///< Fallback occupancy word (unbound).
  uint32_t consumer_shard_ = 0;
#if defined(MEMPOOL_DRC)
  int32_t drc_home_ = -1;  ///< Armed home shard; -1 = unchecked.
#endif
};

}  // namespace mempool
