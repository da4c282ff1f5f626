#pragma once
// Component and sink interfaces for the synchronous cycle engine.

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "sim/activity.hpp"
#include "sim/packet.hpp"

namespace mempool {

class StateSink;
class StateSource;

/// A synchronously evaluated hardware block. The engine calls evaluate() on
/// every *active* component once per cycle, in the topological order
/// established by the cluster builder (response fabric -> clients -> request
/// fabric -> banks), then commits the dirty buffers. In dense mode every
/// component is evaluated every cycle regardless of activity; both modes are
/// cycle-for-cycle identical because an idle component's evaluate() is a
/// no-op by contract.
class Component : public Wakeable {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  virtual void evaluate(uint64_t cycle) = 0;

  /// Activity contract: true when evaluate() would be a no-op this cycle and
  /// every future cycle unless a wake event (buffer push/commit, refill
  /// request, timed wake) arrives. The engine puts an idle component to
  /// sleep right after evaluating it; components whose work is self-generated
  /// (cores still running, generators still generating) return false.
  /// Response delivery wakes nothing, so a client awaiting a response that
  /// its evaluate() acts on must not report idle().
  /// The default is conservatively "never idle" so ad-hoc components (test
  /// probes) are always evaluated, exactly as under the dense engine.
  virtual bool idle() const { return false; }

  /// Static-analysis hook (verify/drc.hpp): declare this component's edges —
  /// which buffers it reads (it is their consumer), which sinks it pushes
  /// into, which components it delivers into or wakes directly — via the
  /// visitor. The conservative default declares nothing, which makes the
  /// component *opaque* to the checker: it is exempt from the orphan rule and
  /// contributes no edges. Plugins therefore gain nothing mandatory; built-in
  /// fabric/memory components all describe themselves so the full paper
  /// configurations lint clean.
  virtual void describe(GraphVisitor& /*v*/) const {}

  /// Checkpoint hooks (sim/snapshot.hpp), the state-capture siblings of
  /// describe(): serialize every bit of simulation-visible state into the
  /// sink / restore it from the source, such that a freshly built component
  /// that load_state()s a save_state() payload continues bit-identically.
  /// load_state() must also re-arm any timed wakes the state implies (the
  /// engine does not serialize its timer wheels). The default is stateless —
  /// correct for pure-combinational components; anything with registers,
  /// queues, RNG streams, or counters overrides both.
  virtual void save_state(StateSink& /*s*/) const {}
  virtual void load_state(StateSource& /*s*/) {}

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// Consumer endpoint for packets moved by a switch. Implemented by elastic
/// buffers (fabric hops) and by always-ready terminal sinks (ROB delivery,
/// traffic-generator completion counters).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual bool can_accept() const = 0;
  virtual void push(const Packet& p) = 0;

  /// Shard plumbing (FabricBuilder::shard_boundary): declare that producers
  /// pushing into this sink evaluate in a different shard than the sink's
  /// consumer (shard @p consumer_shard). Only sinks backed by a *registered*
  /// elastic buffer can sit on a shard boundary; everything else (terminal
  /// delivery sinks, combinational buffers) fails loudly — that structural
  /// property is what makes the sharded engine bit-identical.
  virtual void mark_shard_boundary(uint32_t consumer_shard) {
    (void)consumer_shard;
    MEMPOOL_CHECK_MSG(false,
                      "this sink cannot sit on a shard boundary (only "
                      "registered elastic buffers can)");
  }

  /// Whether mark_shard_boundary() would succeed on this sink, i.e. it is
  /// backed by a *registered* elastic buffer. FabricBuilder::shard_boundary
  /// pre-checks this to report wiring mistakes with full context instead of
  /// the generic CHECK above.
  virtual bool shard_boundary_capable() const { return false; }

  // --- DRC resolution (verify/drc.hpp) ---------------------------------------
  /// The elastic buffer behind this sink, if any: lets the checker resolve a
  /// declared `writes(sink)` edge to the buffer's consumer and mode.
  virtual const Clocked* drc_buffer() const { return nullptr; }
  /// The component this sink delivers into by direct call, if this is a
  /// terminal sink (ClientSink and friends): a same-cycle combinational edge
  /// from the checker's point of view.
  virtual const Wakeable* drc_terminal() const { return nullptr; }
};

/// PacketSink adapter over an ElasticBuffer<Packet>.
template <typename Buffer>
class BufferSink final : public PacketSink {
 public:
  explicit BufferSink(Buffer& buf) : buf_(&buf) {}
  bool can_accept() const override { return buf_->can_accept(); }
  void push(const Packet& p) override { buf_->push(p); }
  void mark_shard_boundary(uint32_t consumer_shard) override {
    buf_->mark_shard_boundary(consumer_shard);
  }
  bool shard_boundary_capable() const override {
    return buf_->registered_mode();
  }
  const Clocked* drc_buffer() const override { return buf_; }

 private:
  Buffer* buf_;
};

}  // namespace mempool
