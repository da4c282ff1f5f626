#include "noc/butterfly.hpp"

#include <bit>
#include <utility>

#include "common/bitutil.hpp"
#include "common/check.hpp"

namespace mempool {

namespace {
/// r-way perfect shuffle on L radix-r digits: left-rotate the digit string.
unsigned shuffle(unsigned p, unsigned layers, unsigned radix_bits, unsigned n) {
  const unsigned top = p >> ((layers - 1) * radix_bits);
  return ((p << radix_bits) | top) & (n - 1);
}

/// Inverse of shuffle: right-rotate the digit string.
unsigned unshuffle(unsigned q, unsigned layers, unsigned radix_bits) {
  const unsigned low = q & ((1u << radix_bits) - 1u);
  return (q >> radix_bits) | (low << ((layers - 1) * radix_bits));
}
}  // namespace

ButterflyNet::ButterflyNet(std::string name, std::size_t num_endpoints,
                           unsigned radix, std::vector<BufferMode> layer_modes,
                           EndpointFn dst_of, std::size_t buffer_capacity,
                           Arena* arena)
    : Component(std::move(name)),
      n_(num_endpoints),
      radix_(radix),
      radix_bits_(log2_exact(radix)),
      layers_(static_cast<unsigned>(layer_modes.size())),
      dst_of_(std::move(dst_of)),
      out_(num_endpoints, nullptr) {
  MEMPOOL_CHECK(is_pow2(radix) && radix >= 2 && radix <= 64);
  MEMPOOL_CHECK(is_pow2(num_endpoints));
  const unsigned want_layers =
      log2_exact(num_endpoints) / log2_exact(radix);
  MEMPOOL_CHECK_MSG(want_layers * radix_bits_ == log2_exact(num_endpoints),
                    "num_endpoints must be a power of the radix");
  MEMPOOL_CHECK_MSG(layers_ == want_layers,
                    "need " << want_layers << " layer modes, got " << layers_);

  buf_.resize(layers_);
  occ_words_ = (n_ + 63) / 64;
  occ_.assign(layers_ * occ_words_, 0);
  slot_req_.assign(n_, 0);
  slots_.reserve(n_);
  for (unsigned l = 0; l < layers_; ++l) {
    buf_[l].reserve_exact(n_, arena);
    for (std::size_t p = 0; p < n_; ++p) {
      buf_[l].emplace_back(layer_modes[l], buffer_capacity, arena);
      // any visible packet re-arms the net
      buf_[l].back().set_consumer(this, this->name().c_str());
      buf_[l].back().bind_occupancy_bit(&occ_[l * occ_words_ + p / 64],
                                        static_cast<unsigned>(p % 64));
    }
  }
  in_sinks_.reserve(n_);
  for (std::size_t p = 0; p < n_; ++p) in_sinks_.emplace_back(buf_[0][p]);

  rr_.assign(layers_ * n_, 0);
  traversals_.assign(layers_, 0);
}

PacketSink* ButterflyNet::input(std::size_t i) {
  MEMPOOL_CHECK(i < in_sinks_.size());
  return &in_sinks_[i];
}

void ButterflyNet::connect_output(std::size_t i, PacketSink* sink) {
  MEMPOOL_CHECK(i < out_.size());
  MEMPOOL_CHECK(sink != nullptr);
  out_[i] = sink;
}

void ButterflyNet::register_clocked(Engine& engine, uint32_t shard) {
  // All stage buffers are consumed by the net's own evaluate pass.
  for (auto& layer : buf_) {
    for (auto& b : layer) engine.add_clocked(&b, shard);
  }
}

uint64_t ButterflyNet::traversals() const {
  uint64_t t = 0;
  for (uint64_t x : traversals_) t += x;
  return t;
}

bool ButterflyNet::idle() const {
  for (uint64_t m : occ_) {
    if (m != 0) return false;
  }
  return true;
}

unsigned ButterflyNet::stage_hop(unsigned pos, unsigned dst, unsigned l,
                                 unsigned layers, unsigned radix_bits,
                                 unsigned n) {
  const unsigned q = shuffle(pos, layers, radix_bits, n);
  const unsigned radix = 1u << radix_bits;
  const unsigned sw = q / radix;
  const unsigned digit = radix_digit(dst, layers - 1 - l, radix_bits);
  return sw * radix + digit;
}

void ButterflyNet::evaluate(uint64_t /*cycle*/) {
  const auto n = static_cast<unsigned>(n_);
  // Process layers in order so that a packet can ripple through consecutive
  // combinational layers within one cycle.
  for (unsigned l = 0; l < layers_; ++l) {
    auto& layer = buf_[l];
    // Arbitration domain: the slot (switch * radix + output digit) a head
    // packet requests. Visit the occupied lines in ascending order (set bits
    // of the layer's occupancy mask) and record each request as bit sw_in
    // (its input index within the switch) of its slot's mask; slots_ lists
    // the requested slots in first-seen order, which is the grant order.
    for (std::size_t wi = 0; wi < occ_words_; ++wi) {
      for (uint64_t m = occ_[l * occ_words_ + wi]; m != 0; m &= m - 1) {
        const auto p = static_cast<unsigned>(wi * 64 + std::countr_zero(m));
        const unsigned dst = dst_of_(layer[p].front());
        MEMPOOL_CHECK_MSG(dst < n_, name() << ": endpoint " << dst
                                           << " out of range " << n_);
        const unsigned q = shuffle(p, layers_, radix_bits_, n);
        const unsigned digit = radix_digit(dst, layers_ - 1 - l, radix_bits_);
        const unsigned slot = (q & ~(radix_ - 1u)) | digit;
        if (slot_req_[slot] == 0) slots_.push_back(slot);
        slot_req_[slot] |= 1ull << (q & (radix_ - 1u));
      }
    }

    // Grant per slot: the first requesting switch input at or after the
    // slot's round-robin pointer wins and moves to the slot's line position
    // (every member of a slot shares that destination by construction).
    for (const unsigned slot : slots_) {
      const uint64_t req = slot_req_[slot];
      slot_req_[slot] = 0;
      const auto group = static_cast<std::size_t>(std::popcount(req));
      uint32_t& rr = rr_[l * n_ + slot];
      // The destination: the next layer's input buffer, or the endpoint sink
      // after the last layer.
      PacketBuffer* next_buf = (l + 1 < layers_) ? &buf_[l + 1][slot] : nullptr;
      PacketSink* out_sink = nullptr;
      if (next_buf == nullptr) {
        MEMPOOL_CHECK_MSG(out_[slot] != nullptr,
                          name() << ": output " << slot << " not connected");
        out_sink = out_[slot];
      }
      const bool ready =
          next_buf != nullptr ? next_buf->can_accept() : out_sink->can_accept();
      if (!ready) {
        blocked_ += group;
        continue;
      }
      const auto sw_in = static_cast<unsigned>(first_set_from(&req, 1, rr));
      const unsigned line =
          unshuffle((slot & ~(radix_ - 1u)) | sw_in, layers_, radix_bits_);
      const Packet granted = layer[line].pop();
      if (next_buf != nullptr) {
        next_buf->push(granted);
      } else {
        out_sink->push(granted);
      }
      ++traversals_[l];
      blocked_ += group - 1;
      rr = (sw_in + 1u) % radix_;
    }
    slots_.clear();
  }
}

void ButterflyNet::describe(GraphVisitor& v) const {
  v.arbitration(ArbiterFairness::kRoundRobin);  // per-switch rr_ pointers
  for (unsigned l = 0; l < layers_; ++l) {
    for (std::size_t p = 0; p < n_; ++p) {
      v.reads(&buf_[l][p], "l" + std::to_string(l) + "p" + std::to_string(p));
      // Hops into layer l >= 1 are pushes from this component into its own
      // buffers: declared so the buffers count as written (rules D1/D2), and
      // exempt from the order rules as self-edges.
      if (l >= 1) {
        v.writes_buffer(&buf_[l][p],
                        "l" + std::to_string(l) + "p" + std::to_string(p));
      }
    }
  }
  for (std::size_t p = 0; p < n_; ++p) {
    if (out_[p] != nullptr) v.writes(out_[p], "out" + std::to_string(p));
  }
}

void ButterflyNet::save_state(StateSink& s) const {
  for (const auto& layer : buf_) {
    for (const PacketBuffer& buf : layer) buf.save_state(s);
  }
  for (const uint32_t r : rr_) s.u32(r);
  for (const uint64_t t : traversals_) s.u64(t);
  s.u64(blocked_);
}

void ButterflyNet::load_state(StateSource& s) {
  // occ_ words refresh through the per-buffer occupancy bits bound at
  // construction.
  for (auto& layer : buf_) {
    for (PacketBuffer& buf : layer) buf.load_state(s);
  }
  for (uint32_t& r : rr_) r = s.u32();
  for (uint64_t& t : traversals_) t = s.u64();
  blocked_ = s.u64();
}

}  // namespace mempool
