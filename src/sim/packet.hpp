#pragma once
// The single message type that flows through MemPool's request and response
// interconnects. The paper's networks transmit single-word requests with
// routing metadata ("Requests hold metadata to route them back to the correct
// core and ensure their proper ordering by the Reorder Buffer").

#include <cstdint>
#include <string>

#include "sim/snapshot.hpp"

namespace mempool {

/// Memory operation carried by a request packet. Stores are posted (the
/// response interconnect only routes read data back, per Section III-A), so
/// only loads/AMOs/LR/SC generate response packets.
enum class MemOp : uint8_t {
  kLoad,
  kStore,
  kAmoSwap,
  kAmoAdd,
  kAmoXor,
  kAmoAnd,
  kAmoOr,
  kAmoMin,
  kAmoMax,
  kAmoMinu,
  kAmoMaxu,
  kLoadReserved,
  kStoreConditional,
};

/// True if @p op produces a response packet on the read-response network.
constexpr bool op_has_response(MemOp op) { return op != MemOp::kStore; }

/// True if @p op writes the target word.
constexpr bool op_writes(MemOp op) {
  return op != MemOp::kLoad && op != MemOp::kLoadReserved;
}

/// One word-sized transaction, used on both the request and the response
/// interconnect (direction disambiguated by where it travels; the response
/// carries the same identity fields so the ROB can match it).
///
/// Fields are ordered largest first so the struct packs into 32 bytes with
/// no padding: every hop copies a packet into an elastic-buffer slot, so its
/// size sets the fabric's cache footprint. The checkpoint order is fixed
/// separately by save_item/load_item below.
struct Packet {
  uint64_t birth = 0;     ///< Cycle the request was generated (for latency).
  uint32_t addr = 0;      ///< Physical (post-scrambler) byte address.
  uint32_t data = 0;      ///< Store data / AMO operand / response payload.
  uint32_t dst_row = 0;   ///< Word row inside the bank.
  uint16_t src = 0;       ///< Global requester index (core or generator).
  uint16_t src_tile = 0;  ///< Tile of the requester (response routing).
  uint16_t dst_tile = 0;  ///< Target tile (request routing).
  uint16_t dst_bank = 0;  ///< Bank inside the target tile.
  uint16_t tag = 0;       ///< Requester-local tag (ROB slot / sequence nr).
  uint8_t be = 0xF;       ///< Byte enables for stores (bit i = byte i).
  MemOp op = MemOp::kLoad;
};
static_assert(sizeof(Packet) == 32, "Packet must stay padding-free");

/// Names for diagnostics (liveness reports, traces).
constexpr const char* mem_op_name(MemOp op) {
  switch (op) {
    case MemOp::kLoad: return "load";
    case MemOp::kStore: return "store";
    case MemOp::kAmoSwap: return "amoswap";
    case MemOp::kAmoAdd: return "amoadd";
    case MemOp::kAmoXor: return "amoxor";
    case MemOp::kAmoAnd: return "amoand";
    case MemOp::kAmoOr: return "amoor";
    case MemOp::kAmoMin: return "amomin";
    case MemOp::kAmoMax: return "amomax";
    case MemOp::kAmoMinu: return "amominu";
    case MemOp::kAmoMaxu: return "amomaxu";
    case MemOp::kLoadReserved: return "lr";
    case MemOp::kStoreConditional: return "sc";
  }
  return "?";
}

/// Checkpoint serialization for packets in flight inside elastic buffers
/// (the ADL pair ElasticBuffer::save_state/load_state look up, mirroring
/// liveness_summary below). The field order is the mempool.ckpt.v1 wire
/// order, independent of the struct layout above.
inline void save_item(StateSink& s, const Packet& p) {
  s.u32(p.addr);
  s.u32(p.data);
  s.u8(p.be);
  s.u8(static_cast<uint8_t>(p.op));
  s.u16(p.src);
  s.u16(p.src_tile);
  s.u16(p.dst_tile);
  s.u16(p.dst_bank);
  s.u32(p.dst_row);
  s.u16(p.tag);
  s.u64(p.birth);
}

inline void load_item(StateSource& s, Packet* p) {
  p->addr = s.u32();
  p->data = s.u32();
  p->be = s.u8();
  p->op = static_cast<MemOp>(s.u8());
  p->src = s.u16();
  p->src_tile = s.u16();
  p->dst_tile = s.u16();
  p->dst_bank = s.u16();
  p->dst_row = s.u32();
  p->tag = s.u16();
  p->birth = s.u64();
}

/// Head-packet summary for the stall watchdog's liveness report (the ADL
/// overload of the generic template in sim/elastic_buffer.hpp).
inline std::string liveness_summary(const Packet& p) {
  return std::string(mem_op_name(p.op)) + " src=" + std::to_string(p.src) +
         " dst=" + std::to_string(p.dst_tile) + ":" +
         std::to_string(p.dst_bank) + " tag=" + std::to_string(p.tag) +
         " birth=" + std::to_string(p.birth);
}

}  // namespace mempool
