#include "runner/shard_gang.hpp"

#include <algorithm>
#include <thread>

#include "common/check.hpp"
#include "runner/spin.hpp"
#include "runner/thread_pool.hpp"

namespace mempool::runner {

namespace {

/// Spin iterations before a waiter parks (helpers) or yields (leader). At
/// ~1-3 ns per pause this is a few microseconds — comfortably longer than a
/// simulated cycle, so a busy gang never touches a futex, while an idle one
/// goes to sleep almost immediately on the wall-clock scale.
constexpr int kSpinBudget = 4096;

}  // namespace

struct ShardGang::State {
  // ticket: bits 63..32 = epoch of the current round, bits 31..0 = next
  // unclaimed shard index. Claiming CASes the whole word, so a claim is
  // always against the round it read — a stale helper can neither steal nor
  // skip work of a newer round.
  std::atomic<uint64_t> ticket{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> stop{false};

  // Round payload, written by the leader before the epoch release-store.
  // fn is only dereferenced after a successful claim — a CAS against a
  // ticket value in the leader's release sequence — so the plain pointer is
  // ordered; n is also read *before* claiming (the have-we-run-dry check),
  // where a straggler from the previous round may still be looking while the
  // leader publishes the next one. That read is validated by the CAS either
  // way, but it must be atomic (relaxed) to be a race-free look at possibly
  // stale data.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<uint64_t> n{0};

  // First exception thrown by fn this round (leader rethrows).
  std::mutex err_mu;
  std::exception_ptr first_error;

  // Parking.
  std::mutex mu;
  std::condition_variable cv;        // helpers waiting for the next epoch
  std::condition_variable cv_done;   // leader waiting for round completion
  std::condition_variable cv_exit;   // destructor waiting for helpers
  std::atomic<unsigned> parked{0};
  std::atomic<uint64_t> park_events{0};
  unsigned live_helpers = 0;  // guarded by mu

  /// Claim and run shards of round @p epoch until none remain (or a newer
  /// round has started — its shards are claimed for *that* round's fn, which
  /// the acquire on the ticket has made visible).
  void work() {
    for (;;) {
      uint64_t t = ticket.load(std::memory_order_acquire);
      const auto s = static_cast<uint32_t>(t);
      if (s >= n.load(std::memory_order_relaxed)) return;
      if (!ticket.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        continue;
      }
      try {
        (*fn)(s);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      const uint64_t done =
          completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (done == n.load(std::memory_order_relaxed)) {
        // Last shard of the round: notify the (possibly parked) leader
        // *through the mutex*, unconditionally. A parked-flag fast path
        // would race: the leader's flag store and completion load can
        // reorder (StoreLoad) against this thread's increment and flag
        // load, letting both sides read stale values — the helper skips
        // the notify while the leader parks on a stale count, and the
        // simulation hangs. Locking orders the increment before the
        // leader's predicate re-check; one uncontended lock per round is
        // noise next to the shard work.
        std::lock_guard<std::mutex> lock(mu);
        cv_done.notify_all();
      }
    }
  }
};

ShardGang::ShardGang(ThreadPool* pool, unsigned threads)
    : st_(std::make_shared<State>()) {
  unsigned available = pool != nullptr ? pool->num_threads() : 0;
  helpers_ = threads > 1 ? std::min(threads - 1, available) : 0;
  for (unsigned h = 0; h < helpers_; ++h) {
    std::shared_ptr<State> st = st_;
    pool->submit([st] { helper_loop(st); });
  }
}

ShardGang::~ShardGang() {
  st_->stop.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> lock(st_->mu);
  st_->cv.notify_all();
  // Wait only for helpers that already *started*; ones the pool never got
  // around to scheduling hold their own shared_ptr to the state and exit on
  // first sight of stop — blocking on them here could deadlock a gang whose
  // pool is busy with the very task that owns this gang.
  st_->cv_exit.wait(lock, [&] { return st_->live_helpers == 0; });
}

void ShardGang::run(std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  State& st = *st_;
  MEMPOOL_CHECK(n < (1ull << 32));
  if (n == 0) return;
  st.fn = &fn;
  st.n.store(n, std::memory_order_relaxed);
  st.completed.store(0, std::memory_order_relaxed);
  const uint64_t epoch = (st.ticket.load(std::memory_order_relaxed) >> 32) + 1;
  st.ticket.store(epoch << 32, std::memory_order_release);
  if (st.parked.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.cv.notify_all();
  }

  st.work();  // the leader is a participant

  // Barrier: all n shards must have completed before we return. Spin first
  // (the straggler is typically mid-shard), then park on cv_done. No missed
  // wakeup: the finishing helper notifies under mu unconditionally, so
  // either this thread's locked predicate check already sees the final
  // count, or it blocks before the helper can acquire mu to notify.
  int spins = 0;
  while (st.completed.load(std::memory_order_acquire) < n) {
    if (++spins <= kSpinBudget) {
      cpu_pause();
      continue;
    }
    std::unique_lock<std::mutex> lock(st.mu);
    st.cv_done.wait(lock, [&] {
      return st.completed.load(std::memory_order_acquire) >= n;
    });
  }

  if (st.first_error) {
    std::exception_ptr e;
    {
      std::lock_guard<std::mutex> lock(st.err_mu);
      e = st.first_error;
      st.first_error = nullptr;
    }
    std::rethrow_exception(e);
  }
}

unsigned ShardGang::parked_helpers() const {
  return st_->parked.load(std::memory_order_acquire);
}

uint64_t ShardGang::park_events() const {
  return st_->park_events.load(std::memory_order_acquire);
}

ShardCrew::ShardCrew(unsigned threads, uint32_t num_shards) {
  const unsigned want =
      std::min<unsigned>(std::max(1u, threads), num_shards);
  if (want > 1) {
    pool_ = std::make_unique<ThreadPool>(want - 1);
    gang_ = std::make_unique<ShardGang>(pool_.get(), want);
  }
}

ShardCrew::~ShardCrew() = default;  // gang_ (helpers) before pool_ (workers)

void ShardGang::helper_loop(const std::shared_ptr<State>& stp) {
  State& st = *stp;
  {
    // Register as live only on actual startup: the destructor joins started
    // helpers, while ones the pool never scheduled before shutdown exit here
    // unregistered (they keep the state alive through their shared_ptr).
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.stop.load(std::memory_order_acquire)) return;
    ++st.live_helpers;
  }
  uint64_t seen = 0;
  for (;;) {
    // Wait for the next round: bounded spin, then park. The engine holds the
    // epoch steady across inline-evaluated light cycles, so a helper serving
    // a mostly-idle cluster parks here and costs nothing.
    int spins = 0;
    uint64_t t;
    for (;;) {
      if (st.stop.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(st.mu);
        if (--st.live_helpers == 0) st.cv_exit.notify_all();
        return;
      }
      t = st.ticket.load(std::memory_order_acquire);
      if ((t >> 32) != seen) break;
      if (++spins <= kSpinBudget) {
        cpu_pause();
        continue;
      }
      std::unique_lock<std::mutex> lock(st.mu);
      st.park_events.fetch_add(1, std::memory_order_relaxed);
      st.parked.fetch_add(1, std::memory_order_release);
      st.cv.wait(lock, [&] {
        return (st.ticket.load(std::memory_order_acquire) >> 32) != seen ||
               st.stop.load(std::memory_order_acquire);
      });
      st.parked.fetch_sub(1, std::memory_order_release);
      spins = 0;
    }
    seen = t >> 32;
    st.work();
  }
}

}  // namespace mempool::runner
