#pragma once
// Chunked bump allocator backing the per-shard component arenas.
//
// The engine's evaluate scan walks components in fabric-evaluation order;
// when every component is an individually heap-allocated unique_ptr the walk
// chases pointers scattered across the heap. Cluster::build instead carves
// each shard's components (and their buffer ring storage) out of one Arena
// in evaluation order, so consecutive components in the scan sit at
// monotonically increasing addresses in a handful of large chunks.
//
// Objects constructed in an Arena are never freed individually: memory is
// reclaimed all at once when the Arena is destroyed. Destructors of
// non-trivially-destructible objects created through make<T>() are recorded
// and run in reverse construction order at Arena destruction — the same
// order a stack of unique_ptr members would produce.
//
// Arenas are not thread-safe; elaboration is single-threaded. The pool that
// recycles their standard chunks is shared and mutex-guarded.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace mempool {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 1u << 20;  // 1 MiB

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {
    MEMPOOL_CHECK(chunk_bytes_ >= 1024);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = delete;
  Arena& operator=(Arena&&) = delete;

  ~Arena() {
    // Reverse construction order, like stacked unique_ptr members.
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
      it->fn(it->obj);
    }
  }

  /// Raw aligned storage; never individually freed. @p align must be a power
  /// of two no larger than alignof(std::max_align_t)… larger alignments (up
  /// to one cache line) are honoured by over-aligned chunk allocation.
  void* allocate(std::size_t size, std::size_t align) {
    MEMPOOL_CHECK(align != 0 && (align & (align - 1)) == 0);
    MEMPOOL_CHECK_MSG(align <= kChunkAlign,
                      "arena allocation alignment " << align << " exceeds "
                                                    << kChunkAlign);
    if (size == 0) size = 1;
    std::size_t off = (cursor_ + align - 1) & ~(align - 1);
    if (chunks_.empty() || off + size > chunk_cap_) {
      grow(size, align);
      off = (cursor_ + align - 1) & ~(align - 1);
    }
    void* p = chunks_.back().get() + off;
    cursor_ = off + size;
    bytes_used_ += size;
    ++allocations_;
    return p;
  }

  /// Construct a T inside the arena. The object lives until the Arena dies;
  /// its destructor is registered unless trivially destructible.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* storage = allocate(sizeof(T), alignof(T));
    T* obj = new (storage) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back({obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    return obj;
  }

  /// Uninitialised array of trivially-destructible Ts (ring storage et al).
  template <typename T>
  T* make_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena arrays skip per-element destructor registration");
    return static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
  }

  // --- stats (reported by Cluster::build diagnostics) ---
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t bytes_reserved() const { return chunks_.size() * chunk_cap_approx_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t allocation_count() const { return allocations_; }

 private:
  static constexpr std::size_t kChunkAlign = 64;  // one cache line

  struct Dtor {
    void* obj;
    void (*fn)(void*);
  };

  // Standard-size chunks are recycled through a process-wide free list
  // instead of going back to malloc. Clusters are built and torn down over
  // and over (sweeps, the simulation service); once glibc's dynamic mmap
  // threshold rises above the chunk size, freed chunks would otherwise stay
  // in its per-thread heaps and fragment around long-lived small
  // allocations, so peak RSS would track heap layout instead of live memory.
  struct ChunkPool {
    static constexpr std::size_t kMaxChunks = 64;
    std::mutex mu;
    std::vector<unsigned char*> chunks;
  };
  static ChunkPool& pool() {
    // Never destroyed: an Arena may die during static destruction.
    static ChunkPool* p = new ChunkPool;
    return *p;
  }

  struct Free {
    bool pooled = false;
    void operator()(unsigned char* p) const {
      if (pooled) {
        ChunkPool& cp = pool();
        std::lock_guard<std::mutex> lock(cp.mu);
        if (cp.chunks.size() < ChunkPool::kMaxChunks) {
          cp.chunks.push_back(p);
          return;
        }
      }
      ::operator delete[](p, std::align_val_t(kChunkAlign));
    }
  };

  void grow(std::size_t size, std::size_t align) {
    // An oversized request gets its own chunk; the bump cursor then starts a
    // fresh standard chunk so later small allocations stay dense.
    std::size_t want = size + align;
    std::size_t cap = want > chunk_bytes_ ? want : chunk_bytes_;
    const bool pooled = cap == kDefaultChunkBytes;
    unsigned char* raw = nullptr;
    if (pooled) {
      ChunkPool& cp = pool();
      std::lock_guard<std::mutex> lock(cp.mu);
      if (!cp.chunks.empty()) {
        raw = cp.chunks.back();
        cp.chunks.pop_back();
      }
    }
    if (raw == nullptr) {
      raw = static_cast<unsigned char*>(
          ::operator new[](cap, std::align_val_t(kChunkAlign)));
    }
    chunks_.emplace_back(raw, Free{pooled});
    chunk_cap_ = cap;
    chunk_cap_approx_ = chunk_bytes_;
    cursor_ = 0;
  }

  std::size_t chunk_bytes_;
  std::size_t chunk_cap_ = 0;         // capacity of the current (last) chunk
  std::size_t chunk_cap_approx_ = 0;  // nominal chunk size for stats
  std::size_t cursor_ = 0;            // bump offset inside the current chunk
  std::size_t bytes_used_ = 0;
  std::size_t allocations_ = 0;
  std::vector<std::unique_ptr<unsigned char[], Free>> chunks_;
  std::vector<Dtor> dtors_;
};

/// Fixed-capacity contiguous emplace-only container for non-movable types.
///
/// std::vector cannot hold engine components: they pin their addresses at
/// registration (the engine and wake plumbing keep raw pointers), so any
/// reallocation or move is a use-after-free. std::deque keeps addresses
/// stable but scatters elements across map nodes. PinnedVector reserves its
/// full capacity once — from an Arena when given one, from the heap
/// otherwise — then only ever constructs in place.
///
/// Elements are destroyed (in reverse) by ~PinnedVector, so a PinnedVector
/// whose storage lives in an Arena must itself be destroyed before that
/// Arena — declare arenas first in the owning class.
template <typename T>
class PinnedVector {
 public:
  PinnedVector() = default;
  PinnedVector(const PinnedVector&) = delete;
  PinnedVector& operator=(const PinnedVector&) = delete;

  PinnedVector(PinnedVector&& other) noexcept { steal(other); }
  PinnedVector& operator=(PinnedVector&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  ~PinnedVector() { destroy(); }

  /// Allocate storage for exactly @p capacity elements. Must be called once,
  /// before any emplace_back; capacity 0 is a no-op.
  void reserve_exact(std::size_t capacity, Arena* arena = nullptr) {
    MEMPOOL_CHECK_MSG(data_ == nullptr && size_ == 0,
                      "PinnedVector::reserve_exact called twice");
    if (capacity == 0) return;
    if (arena != nullptr) {
      data_ = static_cast<T*>(arena->allocate(sizeof(T) * capacity, alignof(T)));
      heap_owned_ = false;
    } else {
      data_ = static_cast<T*>(::operator new(sizeof(T) * capacity,
                                             std::align_val_t(alignof(T))));
      heap_owned_ = true;
    }
    capacity_ = capacity;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    MEMPOOL_CHECK_MSG(size_ < capacity_,
                      "PinnedVector overflow: capacity " << capacity_);
    T* obj = new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *obj;
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

 private:
  void destroy() {
    for (std::size_t i = size_; i > 0; --i) data_[i - 1].~T();
    if (heap_owned_ && data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(alignof(T)));
    }
    data_ = nullptr;
    size_ = capacity_ = 0;
    heap_owned_ = false;
  }

  void steal(PinnedVector& other) {
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    heap_owned_ = other.heap_owned_;
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
    other.heap_owned_ = false;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  bool heap_owned_ = false;
};

}  // namespace mempool
