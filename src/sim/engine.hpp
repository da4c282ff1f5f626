#pragma once
// Synchronous cycle engine with two-phase active-set scheduling.
//
// The MemPool model is a fixed component graph; there is no dynamic event
// queue for packets. Each cycle has two phases:
//   1. evaluate: active components run once, in builder-established
//      topological order. Combinational buffers make packets pushed earlier
//      in the same cycle visible to later components, which is how a packet
//      crosses a chain of combinational switches in a single cycle.
//   2. commit: every buffer with a staged item latches (staged pushes become
//      visible and wake their consumer), then the cycle counter advances.
//
// Scheduling modes:
//   * activity-driven (default): only components whose wake flag is set are
//     evaluated. Components register wake conditions instead of polling:
//       - an elastic-buffer push/commit wakes the downstream component,
//       - an I$ miss wakes the refill engine,
//       - wake_at(cycle, w) arms a timed wake (traffic generators sleep
//         between Poisson arrival events).
//     A component that reports idle() after evaluating is put to sleep until
//     one of those events re-arms it. Response delivery into a client is
//     not one of them: a client waiting on a response must not report
//     idle(), and a sleeping client handles a response in deliver() alone.
//     The wake flags live in one contiguous engine-owned array, so the
//     per-cycle scan is a word-wise sweep that skips 8 sleeping components
//     per load. The commit phase walks only the
//     buffers that staged something this cycle. When a step finds no awake
//     component and nothing staged, the cluster cannot wake itself before
//     the next timer (or ever, if none is armed), so run() fast-forwards the
//     dead cycles and run_until_idle() returns.
//   * dense (set_dense(true)): evaluate every component and commit every
//     registered element each cycle — the original scheduler, kept as the
//     equivalence oracle that tests force explicitly. Both modes are
//     cycle-for-cycle bit-identical (tests/test_sim_equivalence): an idle
//     component's evaluate() is a no-op by contract, and wake events
//     strictly precede the evaluation that observes them thanks to the
//     topological order (all combinational edges point forward; backward
//     edges are registered and wake at the commit edge for the next cycle).
//   * sharded (set_sharded): the activity-driven scheduler with the
//     component graph partitioned into per-group shards evaluated
//     concurrently and latched at a per-cycle commit barrier — see
//     sim/shard.hpp for the structure and the determinism argument. Results
//     are bit-identical to the active engine for any shard count and any
//     thread schedule.
//
// No user option picks the mode. run_traffic_point applies plan_engine
// (sim/shard.hpp): sharded for clusters of kShardedMinCores cores and more
// when the point has at least two host threads, active otherwise. Program
// runs (System) step on the active engine unless configure_engine forces
// another mode.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "sim/activity.hpp"
#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/shard.hpp"

#if defined(MEMPOOL_DRC)
#include "sim/drc_runtime.hpp"
#endif

namespace mempool {

class Snapshot;

/// Thrown by the progress watchdog (Engine::set_stall_horizon) when pending
/// work has made no progress for a full stall horizon: the model is
/// deadlocked (or a consumer is starved), and aborting with an attributed
/// report beats hanging a million-cycle sweep. Carries the machine-readable
/// `mempool.liveness.v1` document naming the oldest-stalled buffers.
class LivenessError : public std::runtime_error {
 public:
  LivenessError(const std::string& what, Json report)
      : std::runtime_error(what), report_(std::move(report)) {}
  const Json& report() const { return report_; }

 private:
  Json report_;
};

class Engine {
 public:
  Engine();
  ~Engine();

  // Buffers and components keep raw pointers to the engine's dirty/flag
  // bitsets, so the engine must stay put once wired.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a component; evaluation follows registration order within each
  /// shard (and globally under the sequential schedulers). @p shard is the
  /// partition the component evaluates in under set_sharded() — components
  /// connected by a combinational path must share a shard (the cluster
  /// builder derives shards from the fabric plugin's group structure, which
  /// guarantees exactly that). Must happen before the first step().
  void add_component(Component* c, uint32_t shard = 0) {
    MEMPOOL_CHECK_MSG(!finalized_, "add_component after the first step");
    MEMPOOL_CHECK_MSG(component_set_.insert(c).second,
                      "component '" << c->name()
                                    << "' registered twice (it would be "
                                       "evaluated twice per cycle)");
    components_.push_back(c);
    component_shard_.push_back(shard);
  }

  /// Register a clocked element for the commit phase. @p shard is the shard
  /// whose commit phase latches the element under set_sharded() — for an
  /// elastic buffer, the shard of its *consumer* (commits publish into
  /// consumer-side state). finalize() packs all registered elements into a
  /// commit-dirty bitset (segmented per shard, like the wake flags) and binds
  /// each element's dirty bit into it; until then staged pushes fall back to
  /// the element's private word, which bind_commit_slot migrates.
  void add_clocked(Clocked* c, uint32_t shard = 0) {
    MEMPOOL_CHECK_MSG(!finalized_, "add_clocked after the first step");
    MEMPOOL_CHECK_MSG(clocked_set_.insert(c).second,
                      "clocked element registered twice (it would commit "
                      "twice per cycle under the dense engine)");
    clocked_.push_back(c);
    clocked_shard_.push_back(shard);
  }

  /// Arm a timed wake: @p w is woken at the start of cycle @p cycle (or
  /// immediately if @p cycle is not in the future). Components use this to
  /// sleep through dead cycles they can predict — e.g. a traffic generator
  /// sleeping until its next Poisson arrival. Near timers go into a bucketed
  /// wheel (O(1) arm/fire); far ones overflow into a heap and migrate as
  /// their window approaches. During a sharded evaluate phase the timer is
  /// armed in the evaluating shard's own wheel (components only arm wakes
  /// for themselves or same-shard peers), keeping the hot path lock-free.
  void wake_at(uint64_t cycle, Wakeable* w) {
    if (cycle <= cycle_) {
      w->wake();
      return;
    }
    if (ShardLane* lane = current_shard_lane()) {
      if (cycle - cycle_ < kTimerWindow) {
        lane->wheel.arm(cycle, w);
      } else {
        lane->far.emplace(cycle, w);
      }
      ++lane->armed;
      return;
    }
    if (cycle - cycle_ < kTimerWindow) {
      wheel_.arm(cycle, w);
    } else {
      far_timers_.emplace(cycle, w);
    }
    ++armed_timers_;
  }

  /// Select the scheduler: false (default) = activity-driven, true = dense
  /// evaluate-everything (the equivalence oracle). May be toggled between
  /// steps; both modes see the same state.
  /// Mutually exclusive with set_sharded().
  void set_dense(bool dense) {
    MEMPOOL_CHECK_MSG(!dense || num_shards_ == 0,
                      "dense and sharded scheduling are mutually exclusive");
    dense_ = dense;
  }
  bool dense() const { return dense_; }

  /// Partition the registered components into @p num_shards shards (by the
  /// shard ids passed to add_component) and step them in parallel on
  /// @p exec; a null executor — or one without spare threads — evaluates the
  /// shards sequentially on the calling thread, still bit-identically.
  /// @p exec, when given, must outlive every subsequent step()/run() call.
  /// Must be called after the components are registered and before the
  /// first step; mutually exclusive with set_dense(true).
  void set_sharded(uint32_t num_shards, ShardExecutor* exec);
  bool sharded() const { return num_shards_ != 0; }
  uint32_t num_shards() const { return num_shards_; }

  /// Arm the deterministic progress watchdog: every @p horizon cycles the
  /// engine probes all registered buffers, and a buffer that stays non-empty
  /// for a full horizon without a single pop() trips a LivenessError carrying
  /// a `mempool.liveness.v1` report (see watchdog_probe in engine.cpp). The
  /// probe reads only simulation state on the leader thread between cycles,
  /// so it is bit-identical across active/dense/sharded modes and never
  /// perturbs results. 0 (default) disarms. May be re-armed between steps;
  /// the horizon then counts from the current cycle.
  void set_stall_horizon(uint64_t horizon) {
    stall_horizon_ = horizon;
    watched_.clear();
    watch_baselined_ = false;
    watch_probe_at_ = horizon == 0 ? UINT64_MAX : cycle_;
  }
  uint64_t stall_horizon() const { return stall_horizon_; }

  /// Advance one cycle.
  void step() { step_work(); }

  /// Advance @p n cycles. In the activity-driven modes, once nothing is
  /// awake and nothing is staged, the cycles up to the next armed timer (or
  /// the target) are skipped in O(1) — they could not have changed any state.
  void run(uint64_t n) {
    const uint64_t target = cycle_ + n;
    while (cycle_ < target) {
      if (!step_work() && !dense_) {
        // Never fast-forward past a watchdog probe: an all-asleep wedge
        // (e.g. everything waiting on a commit that never comes) must still
        // be probed at the exact horizon boundary.
        const uint64_t next =
            std::min(next_timer_at_most(target), watch_probe_at_);
        if (next > cycle_) {
          idle_cycles_skipped_ += next - cycle_;
          cycle_ = next;
        }
      }
    }
  }

  /// Advance until the cluster is quiescent or @p max_cycles elapsed;
  /// returns the number of cycles advanced. In the activity-driven modes,
  /// dead stretches while only a timed wake is pending are fast-forwarded
  /// just like run(); dense mode steps every cycle and polls the components'
  /// idle() predicates.
  uint64_t run_until_idle(uint64_t max_cycles) {
    uint64_t advanced = 0;
    while (advanced < max_cycles && !quiescent()) {
      const uint64_t before = cycle_;
      if (!step_work() && !dense_) {
        // Nothing awake and nothing staged, yet not quiescent: a timed wake
        // is armed — skip straight to it (bounded by the cycle budget and by
        // the next watchdog probe, which must not be jumped over).
        const uint64_t next = std::min(
            next_timer_at_most(before + (max_cycles - advanced)),
            watch_probe_at_);
        if (next > cycle_) {
          idle_cycles_skipped_ += next - cycle_;
          cycle_ = next;
        }
      }
      advanced += cycle_ - before;
    }
    return advanced;
  }

  /// True when no component has pending work, nothing awaits commit, and no
  /// timer is armed — i.e. no future cycle can differ from this one (absent
  /// external pokes).
  bool quiescent() const {
    if (dirty_pending_ != 0 || armed_timers_ != 0) return false;
    for (const ShardLane& lane : lanes_) {
      if (lane.armed != 0 || lane.dirty_pending != 0) return false;
    }
    for (const Component* c : components_) {
      // Activity invariant: a sleeping component is idle by construction, so
      // only awake components need the (virtual) idle() check. Dense mode
      // never clears wake flags and always takes the idle() path.
      if (c->awake() && !c->idle()) return false;
    }
    return true;
  }

  // --- checkpoint/restore (sim/snapshot.cpp) ---------------------------------
  /// Capture the full simulation state at the current (quiesced) cycle
  /// boundary into @p snap: engine counters plus one section per registered
  /// component, in registration order. Must be called between steps — a
  /// non-empty commit-dirty set fails the quiescence check.
  void save_state(Snapshot* snap) const;
  /// Restore a save_state() capture into a freshly built engine/cluster of
  /// the same configuration. Sets the cycle counter and hands every
  /// component its section; continuing the run is bit-identical to the
  /// uninterrupted one under all scheduling modes.
  void load_state(const Snapshot& snap);

  uint64_t cycle() const { return cycle_; }
  std::size_t num_components() const { return components_.size(); }
  std::size_t num_clocked() const { return clocked_.size(); }

  // --- registration state (read by verify/drc.cpp) ---------------------------
  /// Registered components in evaluation (= registration) order.
  const std::vector<Component*>& components() const { return components_; }
  /// Shard id per component, parallel to components().
  const std::vector<uint32_t>& component_shards() const {
    return component_shard_;
  }
  /// Registered clocked elements (commit-phase participants).
  const std::vector<Clocked*>& clocked_elements() const { return clocked_; }
  /// Whether @p c was registered via add_clocked (rule D1).
  bool is_registered_clocked(const Clocked* c) const {
    return clocked_set_.count(c) != 0;
  }

  // --- scheduler statistics (perf reporting and tests) -----------------------
  /// Total component evaluate() calls across all cycles.
  uint64_t evaluations() const;
  /// Total commit() calls across all cycles.
  uint64_t commits() const;
  /// Cycles fast-forwarded by run() after quiescence was detected.
  uint64_t idle_cycles_skipped() const { return idle_cycles_skipped_; }
  /// Cycles the sharded engine dispatched to the executor (vs. evaluating
  /// the shards inline because the previous cycle was too light to pay the
  /// barrier for). Deterministic: depends only on simulation state.
  uint64_t parallel_cycles() const { return parallel_cycles_; }

  // --- per-phase profiling (micro_sim_speed --profile) -----------------------
  /// Wall-clock nanoseconds attributed to each phase of the cycle loop while
  /// set_profile(true): evaluate = timer firing + active-set scans, commit =
  /// commit-dirty bitset scans, drain = cross-shard ring drains + boundary
  /// snapshot refreshes (sharded only), barrier = dispatch/join overhead of
  /// the sharded phases (phase wall time minus the busiest lane's work). A
  /// sharded cycle stepped inline (no executor, or too light to dispatch)
  /// charges every lane's time to the work phases and none to barrier.
  /// Profiling never changes simulation results — it only reads clocks.
  struct PhaseProfile {
    uint64_t evaluate_ns = 0;
    uint64_t commit_ns = 0;
    uint64_t drain_ns = 0;
    uint64_t barrier_ns = 0;
    uint64_t cycles = 0;  ///< Cycles measured (fast-forwarded ones excluded).
  };
  void set_profile(bool on) { profile_ = on; }
  const PhaseProfile& phase_profile() const { return profile_data_; }

 private:
  /// Gather every component's wake flag into one packed bitset so the
  /// active-set scan iterates set bits of a few contiguous words. Under
  /// set_sharded the bitset is segmented per shard (cache-line aligned) and
  /// per-shard slot tables are built.
  void finalize();

  /// Fire every timer due at the current cycle (wheel slot + any far timer
  /// that is due or has entered the wheel window). Timer wakes are observed
  /// by this cycle's scan.
  void fire_timers() {
    while (!far_timers_.empty() &&
           far_timers_.top().first < cycle_ + kTimerWindow) {
      const auto [due, w] = far_timers_.top();
      far_timers_.pop();
      if (due <= cycle_) {
        w->wake();
        --armed_timers_;
      } else {
        wheel_.arm(due, w);
      }
    }
    armed_timers_ -= wheel_.fire(cycle_);
  }

  /// Earliest armed timer cycle, clamped to @p limit. Only called when the
  /// cluster is otherwise quiescent, so the wheel scans are off the hot path.
  uint64_t next_timer_at_most(uint64_t limit) const;

  /// One cycle; returns true if any component was evaluated or any element
  /// committed (always true in dense mode).
  bool step_work() {
    if (!finalized_) finalize();
    // Watchdog probe: leader thread, between cycles, before any shard phase
    // is released — identical observation point under all three modes.
    if (cycle_ >= watch_probe_at_) watchdog_probe();
    if (num_shards_ != 0) return step_sharded();
    const uint64_t t0 = profile_ ? prof_now_ns() : 0;
    fire_timers();
    bool worked = false;
    if (dense_) {
      for (std::size_t i = 0; i < components_.size(); ++i) {
#if defined(MEMPOOL_DRC)
        const drc::EvalShardScope drc_scope(
            static_cast<int32_t>(component_shard_[i]));
#endif
        components_[i]->evaluate(cycle_);
      }
      evaluations_ += components_.size();
      const uint64_t t1 = profile_ ? prof_now_ns() : 0;
      for (Clocked* c : clocked_) c->commit();
      commits_ += clocked_.size();
      // Buffers still self-marked their dirty bits; the full sweep above
      // already committed them, so just wipe the bitset for the next cycle.
      if (dirty_pending_ != 0) {
        std::fill(dirty_.begin(), dirty_.end(), 0);
        dirty_pending_ = 0;
      }
      worked = true;
      if (profile_) {
        profile_data_.evaluate_ns += t1 - t0;
        profile_data_.commit_ns += prof_now_ns() - t1;
        ++profile_data_.cycles;
      }
    } else {
      worked = scan_words(flags_.data(), 0, flags_.size(), components_.data(),
                          &evaluations_, component_shard_.data(), 0);
      const uint64_t t1 = profile_ ? prof_now_ns() : 0;
      if (dirty_pending_ != 0) {
        worked = true;
        commits_ +=
            commit_scan(dirty_.data(), 0, dirty_.size(), commit_slots_.data());
        dirty_pending_ = 0;
      }
      if (profile_) {
        profile_data_.evaluate_ns += t1 - t0;
        profile_data_.commit_ns += prof_now_ns() - t1;
        ++profile_data_.cycles;
      }
    }
    ++cycle_;
    return worked;
  }

  /// Evaluate the awake components behind flag words [@p begin, @p end) of
  /// @p words; slot tables are indexed relative to @p begin. Shared between
  /// the sequential scan (whole array) and the per-shard scans.
  /// MEMPOOL_DRC only: each evaluation is tagged with its component's shard —
  /// @p slot_shards (indexed like @p slots) when non-null, else
  /// @p fixed_shard (the per-lane scans, where every slot shares the lane
  /// id). Plain builds ignore both.
  bool scan_words(uint64_t* words, std::size_t begin, std::size_t end,
                  Component* const* slots, uint64_t* evaluations,
                  [[maybe_unused]] const uint32_t* slot_shards,
                  [[maybe_unused]] int32_t fixed_shard) {
    bool worked = false;
    for (std::size_t w = begin; w < end; ++w) {
      // Process set bits in ascending component order, re-reading the word
      // after every evaluation: a component may wake a LATER one in this
      // same word via a combinational push (must be seen this cycle), while
      // a backward wake (e.g. an I$ miss arming the earlier-phase refill
      // engine) stays pending for the next cycle — exactly the dense
      // engine's semantics.
      uint64_t visited = 0;  // bit b and everything below, once processed
      uint64_t m;
      while ((m = words[w] & ~visited) != 0) {
        const unsigned b = std::countr_zero(m);
        const uint64_t bit = 1ull << b;
        visited |= bit | (bit - 1);
        worked = true;
        Component* c = slots[(w - begin) * 64 + b];
        {
#if defined(MEMPOOL_DRC)
          const drc::EvalShardScope drc_scope(
              slot_shards != nullptr
                  ? static_cast<int32_t>(slot_shards[(w - begin) * 64 + b])
                  : fixed_shard);
#endif
          c->evaluate(cycle_);
        }
        ++*evaluations;
        if (c->idle()) c->sleep();
      }
    }
    return worked;
  }

  /// Commit the clocked elements behind set dirty bits of words
  /// [@p begin, @p end), in ascending slot order (bit-identical to the
  /// historical push-order queue — see Clocked's class comment). Each word is
  /// cleared before its bits are walked; commit() never re-marks, so the
  /// bitset is clean afterwards. Returns the number of commits.
  static uint64_t commit_scan(uint64_t* words, std::size_t begin,
                              std::size_t end, Clocked* const* slots) {
    uint64_t n = 0;
    for (std::size_t w = begin; w < end; ++w) {
      uint64_t m = words[w];
      if (m == 0) continue;
      words[w] = 0;
      do {
        const unsigned b = std::countr_zero(m);
        m &= m - 1;
        slots[(w - begin) * 64 + b]->commit();
        ++n;
      } while (m != 0);
    }
    return n;
  }

  static uint64_t prof_now_ns() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // --- sharded stepping (engine.cpp) -----------------------------------------
  bool step_sharded();
  void shard_evaluate(std::size_t s);
  void shard_commit(std::size_t s);

  // --- progress watchdog (engine.cpp) ----------------------------------------
  /// One buffer under watch. `pending_since` is the probe cycle at which the
  /// current "non-empty with no drain progress" run began; a run that
  /// reaches the stall horizon trips the watchdog.
  struct WatchedBuffer {
    Clocked* buf = nullptr;
    std::string name;    ///< First reader's "component.port" (DRC naming).
    uint32_t shard = 0;  ///< Consumer's shard (0 under sequential modes).
    uint64_t drains = 0;
    bool pending = false;
    uint64_t pending_since = 0;
  };
  void watchdog_collect();
  void watchdog_probe();
  [[noreturn]] void watchdog_fire(
      const std::vector<const WatchedBuffer*>& stalled);

  std::vector<Component*> components_;
  std::vector<uint32_t> component_shard_;  ///< Parallel to components_.
  std::vector<Clocked*> clocked_;
  std::vector<uint32_t> clocked_shard_;  ///< Parallel to clocked_.
  std::unordered_set<const Component*> component_set_;  ///< Dup detection.
  std::unordered_set<const Clocked*> clocked_set_;      ///< Dup detection.
  std::vector<uint64_t> flags_;  ///< Packed wake bits, one per component.
  std::vector<uint64_t> dirty_;  ///< Packed commit-dirty bits, one per clocked.
  std::vector<Clocked*> commit_slots_;  ///< Bit -> element (sequential modes).
  uint64_t dirty_pending_ = 0;  ///< Dirty count (sequential/external staging).
  /// S×S matrix of cross-shard handoff rings, row-major by producer shard
  /// (lanes_[s].outbox_row = &rings_[s * S]); sized at finalize from the
  /// boundary-buffer registry, empty under the sequential modes.
  std::unique_ptr<SpscRing<Clocked*>[]> rings_;
  static constexpr uint64_t kTimerWindow = TimerWheel::kWindow;
  static_assert(kTimerWindow == ShardLane::kTimerWindow);
  TimerWheel wheel_;
  using Timer = std::pair<uint64_t, Wakeable*>;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
      far_timers_;
  uint64_t armed_timers_ = 0;
  uint64_t cycle_ = 0;
  bool dense_ = false;
  bool finalized_ = false;
  uint64_t evaluations_ = 0;
  uint64_t commits_ = 0;
  uint64_t idle_cycles_skipped_ = 0;
  bool profile_ = false;
  PhaseProfile profile_data_;

  // --- watchdog state --------------------------------------------------------
  uint64_t stall_horizon_ = 0;            ///< 0 = watchdog disarmed.
  uint64_t watch_probe_at_ = UINT64_MAX;  ///< Next probe cycle.
  bool watch_baselined_ = false;          ///< Buffer list collected yet?
  std::vector<WatchedBuffer> watched_;

  // --- sharded state ---------------------------------------------------------
  uint32_t num_shards_ = 0;  ///< 0 = sequential scheduling.
  ShardExecutor* exec_ = nullptr;
  std::vector<ShardLane> lanes_;
  /// Evaluations of the previous cycle: cycles lighter than the dispatch
  /// threshold are evaluated inline (the barrier would cost more than the
  /// work); purely simulation-state dependent, so the choice never affects
  /// results.
  uint64_t last_cycle_evals_ = UINT64_MAX;
  uint64_t prev_total_evals_ = 0;
  uint64_t parallel_cycles_ = 0;
};

}  // namespace mempool
