#pragma once
// ShardGang: the reusable cycle-barrier primitive behind the sharded engine.
//
// A gang is a crew of helper tasks parked on the ThreadPool plus the calling
// ("leader") thread. Every run(n, fn) is one barrier round: the leader
// publishes the work, everyone claims shard indices from a shared ticket
// until none remain, and run() returns only when all n invocations have
// completed — a full barrier, with all effects visible to the leader. The
// engine calls this twice per simulated cycle (evaluate, commit), millions
// of times per run, so a round must cost hundreds of nanoseconds, not a
// mutex convoy:
//
//   * the ticket packs (epoch, next-shard) into one 64-bit atomic; helpers
//     claim by CAS, so a laggard from the previous round can never steal or
//     skip a shard of the next one;
//   * helpers wait for the next epoch with a bounded spin and then *park* on
//     a condition variable — a gang stepping a mostly-idle cluster (the
//     engine evaluates light cycles inline without bumping the epoch) burns
//     one core, not one core per thread. The leader wakes parked helpers only
//     when the parked counter says someone is actually asleep, so the steady
//     busy state stays syscall-free.
//   * participation is *optional*: a helper that the pool has not scheduled
//     yet (or that another sweep point is hogging) simply never claims; the
//     leader completes the remaining shards itself. No configuration can
//     deadlock, and gangs sharing a pool with sweep-level parallelism
//     degrade to leader-only execution instead of wedging.
//
// Determinism: which thread runs a shard is irrelevant by construction (the
// engine's shards share no unsynchronized state), and run() is a barrier, so
// results are bit-identical for any helper count including zero.
//
// A thrown exception inside fn (e.g. a MEMPOOL_CHECK in a component) is
// captured, the round still completes (the failing shard counts as done),
// and run() rethrows the first error on the leader.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

#include "sim/shard.hpp"

namespace mempool::runner {

class ThreadPool;

class ShardGang final : public ShardExecutor {
 public:
  /// @param pool    pool the helper tasks are submitted to (may be null).
  /// @param threads total desired participants including the leader; the
  ///                gang submits min(threads, pool workers + 1) - 1 helpers.
  ShardGang(ThreadPool* pool, unsigned threads);
  ~ShardGang() override;

  ShardGang(const ShardGang&) = delete;
  ShardGang& operator=(const ShardGang&) = delete;

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) override;
  unsigned threads() const override { return helpers_ + 1; }

  // --- introspection (tests) -------------------------------------------------
  /// Helpers currently parked on the condition variable (not spinning).
  unsigned parked_helpers() const;
  /// Total helper park events since construction.
  uint64_t park_events() const;

 private:
  struct State;
  static void helper_loop(const std::shared_ptr<State>& st);
  std::shared_ptr<State> st_;
  unsigned helpers_ = 0;
};

/// A gang plus the private pool its helpers live on, sized for stepping one
/// cluster: min(threads, num_shards) participants including the caller.
/// Owns the destruction-order invariant (the gang joins its helpers before
/// the pool joins its workers) so call sites cannot get it subtly wrong.
/// executor() is null when one thread suffices — pass it to
/// Engine::set_sharded either way.
class ShardCrew {
 public:
  ShardCrew(unsigned threads, uint32_t num_shards);
  ~ShardCrew();  // out of line: ThreadPool is only forward-declared here
  ShardExecutor* executor() { return gang_ ? gang_.get() : nullptr; }

 private:
  // pool_ before gang_: members destroy in reverse declaration order.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ShardGang> gang_;
};

}  // namespace mempool::runner
