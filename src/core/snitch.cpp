#include "core/snitch.hpp"

#include "common/bitutil.hpp"
#include "common/check.hpp"
#include "isa/csr.hpp"
#include "isa/disasm.hpp"
#include "mem/dma.hpp"

namespace mempool {

using isa::Instr;
using isa::Kind;

SnitchCore::SnitchCore(std::string name, uint16_t id, uint16_t tile,
                       const ClusterConfig& cfg, const MemoryLayout* layout,
                       ICache* icache, const std::vector<Instr>* program,
                       uint32_t program_base, uint32_t boot_pc)
    : Client(std::move(name), id, tile),
      cfg_(&cfg),
      layout_(layout),
      icache_(icache),
      program_(program),
      program_base_(program_base),
      pc_(boot_pc),
      rob_(cfg.core.num_outstanding) {
  MEMPOOL_CHECK(layout_ != nullptr && icache_ != nullptr && program_ != nullptr);
}

void SnitchCore::deliver(const Packet& resp) {
  // Responses are delivered in the response phase of the cycle after our
  // last evaluate(), hence the +1.
  stats_.resp_latency_sum += last_cycle_ + 1 - resp.birth;
  ++stats_.resp_count;
  rob_.fill(resp.tag, resp.data);
  // Tagged write-back on arrival: apply the register update immediately; the
  // ROB slot itself is recycled in order at retire.
  writeback(rob_.peek(resp.tag));
}

void SnitchCore::writeback(const RobEntry& e) {
  if (e.rd == 0) return;
  uint32_t v = e.data >> (8 * e.byte_offset);
  if (e.width == 1) {
    v = e.sign_extend ? static_cast<uint32_t>(sign_extend(v & 0xFF, 8))
                      : (v & 0xFF);
  } else if (e.width == 2) {
    v = e.sign_extend ? static_cast<uint32_t>(sign_extend(v & 0xFFFF, 16))
                      : (v & 0xFFFF);
  }
  regs_[e.rd] = v;
  mem_pending_[e.rd] = false;
}

DmaPortal& SnitchCore::dma_or_die() const {
  MEMPOOL_CHECK_MSG(dma_ != nullptr,
                    name() << ": DMA CSR access, but memory system '"
                           << cfg_->memory.name
                           << "' has no DMA engine (use --memory tcdm+l2)");
  return *dma_;
}

uint32_t SnitchCore::csr_read(uint16_t csr, uint64_t cycle) const {
  switch (csr) {
    case isa::kCsrMhartid: return id_;
    case isa::kCsrMscratch: return mscratch_;
    case isa::kCsrMcycle: return static_cast<uint32_t>(cycle);
    case isa::kCsrMcycleH: return static_cast<uint32_t>(cycle >> 32);
    case isa::kCsrMinstret: return static_cast<uint32_t>(stats_.instret);
    case isa::kCsrMinstretH: return static_cast<uint32_t>(stats_.instret >> 32);
    case isa::kCsrNumCores: return cfg_->num_cores();
    case isa::kCsrTileId: return tile_;
    case isa::kCsrCoresPerTile: return cfg_->cores_per_tile;
    case isa::kCsrDmaSrc: return dma_src_;
    case isa::kCsrDmaDst: return dma_dst_;
    case isa::kCsrDmaRows: return dma_rows_;
    case isa::kCsrDmaSrcStride: return dma_src_stride_;
    case isa::kCsrDmaDstStride: return dma_dst_stride_;
    case isa::kCsrDmaPending: return dma_or_die().pending(id_);
    default:
      MEMPOOL_CHECK_MSG(false, name() << ": read of unimplemented CSR 0x"
                                      << std::hex << csr);
  }
  return 0;
}

void SnitchCore::csr_write(uint16_t csr, uint32_t value) {
  switch (csr) {
    case isa::kCsrMscratch:
      mscratch_ = value;
      return;
    case isa::kCsrDmaSrc:
      dma_src_ = value;
      return;
    case isa::kCsrDmaDst:
      dma_dst_ = value;
      return;
    case isa::kCsrDmaRows:
      dma_rows_ = value;
      return;
    case isa::kCsrDmaSrcStride:
      dma_src_stride_ = value;
      return;
    case isa::kCsrDmaDstStride:
      dma_dst_stride_ = value;
      return;
    case isa::kCsrDmaStart: {
      DmaDescriptor d;
      d.src = dma_src_;
      d.dst = dma_dst_;
      d.words_per_row = value;
      d.rows = dma_rows_;
      d.src_stride = dma_src_stride_;
      d.dst_stride = dma_dst_stride_;
      dma_or_die().submit(id_, d);
      ++stats_.dma_submits;
      return;
    }
    default:
      MEMPOOL_CHECK_MSG(false, name() << ": write of unimplemented CSR 0x"
                                      << std::hex << csr);
  }
}

void SnitchCore::evaluate(uint64_t cycle) {
  if (halted_) return;
  last_cycle_ = cycle;
  ++stats_.cycles;

  // 1. Retire completed responses from the ROB head. Their write-back
  //    happened on arrival, so the retire only recycles slots (any number
  //    per cycle).
  while (rob_.head_ready()) rob_.pop_head();

  // 2. Control stall (taken-branch bubble or blocking divide).
  if (next_issue_cycle_ > cycle) {
    ++stats_.stall_ctrl;
    return;
  }

  // 3. Fetch through the shared I$ (hit: same cycle; miss: retry). The
  //    instruction register avoids re-accessing the I$ while stalled.
  if (!ir_valid_ || ir_pc_ != pc_) {
    const auto fetched = icache_->fetch(pc_, cycle);
    if (!fetched.hit) {
      ++stats_.stall_fetch;
      return;
    }
    ir_valid_ = true;
    ir_pc_ = pc_;
  }
  const uint32_t index = (pc_ - program_base_) / 4;
  MEMPOOL_CHECK_MSG(pc_ >= program_base_ && index < program_->size(),
                    name() << ": pc 0x" << std::hex << pc_
                           << " outside the loaded program");
  const Instr& d = (*program_)[index];

  // 4. Scoreboard: every operand (and the destination, for WAW) must be ready.
  auto uses_rs1 = [&] {
    switch (d.kind) {
      case Kind::kLui: case Kind::kAuipc: case Kind::kJal:
      case Kind::kEcall: case Kind::kEbreak: case Kind::kFence:
      case Kind::kCsrrwi: case Kind::kCsrrsi: case Kind::kCsrrci:
        return false;
      default:
        return true;
    }
  };
  auto uses_rs2 = [&] {
    switch (d.kind) {
      case Kind::kBeq: case Kind::kBne: case Kind::kBlt: case Kind::kBge:
      case Kind::kBltu: case Kind::kBgeu:
      case Kind::kSb: case Kind::kSh: case Kind::kSw:
      case Kind::kAdd: case Kind::kSub: case Kind::kSll: case Kind::kSlt:
      case Kind::kSltu: case Kind::kXor: case Kind::kSrl: case Kind::kSra:
      case Kind::kOr: case Kind::kAnd:
      case Kind::kMul: case Kind::kMulh: case Kind::kMulhsu: case Kind::kMulhu:
      case Kind::kDiv: case Kind::kDivu: case Kind::kRem: case Kind::kRemu:
      case Kind::kScW: case Kind::kAmoSwapW: case Kind::kAmoAddW:
      case Kind::kAmoXorW: case Kind::kAmoAndW: case Kind::kAmoOrW:
      case Kind::kAmoMinW: case Kind::kAmoMaxW: case Kind::kAmoMinuW:
      case Kind::kAmoMaxuW:
        return true;
      default:
        return false;
    }
  };
  auto writes_rd = [&] {
    switch (d.kind) {
      case Kind::kBeq: case Kind::kBne: case Kind::kBlt: case Kind::kBge:
      case Kind::kBltu: case Kind::kBgeu:
      case Kind::kSb: case Kind::kSh: case Kind::kSw:
      case Kind::kFence: case Kind::kEcall: case Kind::kEbreak:
        return false;
      default:
        return true;
    }
  };
  if ((uses_rs1() && !reg_ready(d.rs1, cycle)) ||
      (uses_rs2() && !reg_ready(d.rs2, cycle)) ||
      (writes_rd() && d.rd != 0 && !reg_ready(d.rd, cycle))) {
    ++stats_.stall_raw;
    return;
  }

  const uint32_t rs1 = regs_[d.rs1];
  const uint32_t rs2 = regs_[d.rs2];
  const int32_t s1 = static_cast<int32_t>(rs1);
  const int32_t s2 = static_cast<int32_t>(rs2);
  auto wr = [&](uint32_t v) {
    if (d.rd != 0) regs_[d.rd] = v;
  };
  auto next = [&] { pc_ += 4; };
  auto redirect = [&](uint32_t target) {
    pc_ = target;
    next_issue_cycle_ = cycle + cfg_->core.branch_taken_penalty;
  };
  auto branch = [&](bool taken) {
    ++stats_.branches;
    ++stats_.instret;
    if (taken) {
      redirect(pc_ + static_cast<uint32_t>(d.imm));
    } else {
      next();
    }
  };

  // 5. Memory operations: translate, allocate ROB (loads), issue.
  auto issue_memory = [&](MemOp op, uint32_t cpu_addr, uint32_t wdata,
                          uint8_t width, bool sign) -> bool {
    // Testbench peripherals are core-local.
    if (layout_->is_ctrl(cpu_addr)) {
      MEMPOOL_CHECK_MSG(op == MemOp::kStore,
                        name() << ": only stores allowed to control space");
      if (cpu_addr == kCtrlExit) {
        halt(wdata);
      } else if (cpu_addr == kCtrlPutChar) {
        console_.push_back(static_cast<char>(wdata & 0xFF));
      } else {
        MEMPOOL_CHECK_MSG(false, name() << ": bad control address 0x"
                                        << std::hex << cpu_addr);
      }
      ++stats_.instret;
      next();
      return true;
    }
    MEMPOOL_CHECK_MSG(layout_->is_spm(cpu_addr),
                      name() << ": access to unmapped address 0x" << std::hex
                             << cpu_addr << " at pc 0x" << pc_);
    MEMPOOL_CHECK_MSG(cpu_addr % width == 0,
                      name() << ": misaligned " << static_cast<int>(width)
                             << "-byte access to 0x" << std::hex << cpu_addr);
    Packet p;
    p.op = op;
    p.src = id_;
    p.src_tile = tile_;
    p.birth = cycle;
    layout_->route(p, cpu_addr);
    const bool needs_rob = op_has_response(op);
    if (needs_rob && rob_.full()) {
      ++stats_.stall_rob;
      return false;
    }
    if (op == MemOp::kStore) {
      const unsigned off = cpu_addr & 3u;
      p.data = wdata << (8 * off);
      p.be = static_cast<uint8_t>(((1u << width) - 1u) << off);
    } else {
      p.data = wdata;
      p.be = 0xF;
    }
    if (needs_rob) {
      RobEntry meta;
      meta.rd = d.rd;
      meta.width = width;
      meta.sign_extend = sign;
      meta.byte_offset = static_cast<uint8_t>(cpu_addr & 3u);
      // Reserve the tag only after the fabric accepted the packet; peek the
      // tag by allocating and rolling forward (allocate is cheap and the
      // port push below cannot fail after can-accept was established by
      // try_issue itself, so allocate first and issue with the real tag).
      const uint16_t tag = rob_.allocate(meta);
      p.tag = tag;
      if (!port_->try_issue(p)) {
        // Roll back: the entry we just allocated is the newest; retire it
        // by marking done and never exposing it would corrupt ordering, so
        // instead we use the ROB's guarantee that allocate/rollback pairs
        // are only legal for the tail entry.
        rob_.rollback_tail();
        ++stats_.stall_port;
        return false;
      }
      if (d.rd != 0) mem_pending_[d.rd] = true;
    } else {
      if (!port_->try_issue(p)) {
        ++stats_.stall_port;
        return false;
      }
    }
    const bool local = p.dst_tile == tile_;
    switch (op) {
      case MemOp::kLoad:
        ++(local ? stats_.loads_local : stats_.loads_remote);
        break;
      case MemOp::kStore:
        ++(local ? stats_.stores_local : stats_.stores_remote);
        break;
      default:
        ++stats_.amos;
        break;
    }
    ++stats_.instret;
    next();
    return true;
  };

  auto amo = [&](MemOp op) { issue_memory(op, rs1, rs2, 4, false); };

  // 6. Execute.
  switch (d.kind) {
    case Kind::kLui: wr(static_cast<uint32_t>(d.imm)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kAuipc: wr(pc_ + static_cast<uint32_t>(d.imm)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kJal:
      wr(pc_ + 4);
      ++stats_.branches;
      ++stats_.instret;
      redirect(pc_ + static_cast<uint32_t>(d.imm));
      break;
    case Kind::kJalr: {
      const uint32_t target = (rs1 + static_cast<uint32_t>(d.imm)) & ~1u;
      wr(pc_ + 4);
      ++stats_.branches;
      ++stats_.instret;
      redirect(target);
      break;
    }
    case Kind::kBeq: branch(rs1 == rs2); break;
    case Kind::kBne: branch(rs1 != rs2); break;
    case Kind::kBlt: branch(s1 < s2); break;
    case Kind::kBge: branch(s1 >= s2); break;
    case Kind::kBltu: branch(rs1 < rs2); break;
    case Kind::kBgeu: branch(rs1 >= rs2); break;

    case Kind::kLb: issue_memory(MemOp::kLoad, rs1 + d.imm, 0, 1, true); break;
    case Kind::kLh: issue_memory(MemOp::kLoad, rs1 + d.imm, 0, 2, true); break;
    case Kind::kLw: issue_memory(MemOp::kLoad, rs1 + d.imm, 0, 4, false); break;
    case Kind::kLbu: issue_memory(MemOp::kLoad, rs1 + d.imm, 0, 1, false); break;
    case Kind::kLhu: issue_memory(MemOp::kLoad, rs1 + d.imm, 0, 2, false); break;
    case Kind::kSb: issue_memory(MemOp::kStore, rs1 + d.imm, rs2 & 0xFF, 1, false); break;
    case Kind::kSh: issue_memory(MemOp::kStore, rs1 + d.imm, rs2 & 0xFFFF, 2, false); break;
    case Kind::kSw: issue_memory(MemOp::kStore, rs1 + d.imm, rs2, 4, false); break;

    case Kind::kAddi: wr(rs1 + static_cast<uint32_t>(d.imm)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSlti: wr(s1 < d.imm ? 1 : 0); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSltiu: wr(rs1 < static_cast<uint32_t>(d.imm) ? 1 : 0); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kXori: wr(rs1 ^ static_cast<uint32_t>(d.imm)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kOri: wr(rs1 | static_cast<uint32_t>(d.imm)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kAndi: wr(rs1 & static_cast<uint32_t>(d.imm)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSlli: wr(rs1 << d.imm); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSrli: wr(rs1 >> d.imm); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSrai: wr(static_cast<uint32_t>(s1 >> d.imm)); ++stats_.alu; ++stats_.instret; next(); break;

    case Kind::kAdd: wr(rs1 + rs2); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSub: wr(rs1 - rs2); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSll: wr(rs1 << (rs2 & 31)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSlt: wr(s1 < s2 ? 1 : 0); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSltu: wr(rs1 < rs2 ? 1 : 0); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kXor: wr(rs1 ^ rs2); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSrl: wr(rs1 >> (rs2 & 31)); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kSra: wr(static_cast<uint32_t>(s1 >> (rs2 & 31))); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kOr: wr(rs1 | rs2); ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kAnd: wr(rs1 & rs2); ++stats_.alu; ++stats_.instret; next(); break;

    case Kind::kMul:
      wr(static_cast<uint32_t>(static_cast<int64_t>(s1) * s2));
      if (d.rd != 0) alu_ready_[d.rd] = cycle + cfg_->core.mul_latency;
      ++stats_.mul; ++stats_.instret; next();
      break;
    case Kind::kMulh:
      wr(static_cast<uint32_t>(
          (static_cast<int64_t>(s1) * static_cast<int64_t>(s2)) >> 32));
      if (d.rd != 0) alu_ready_[d.rd] = cycle + cfg_->core.mul_latency;
      ++stats_.mul; ++stats_.instret; next();
      break;
    case Kind::kMulhsu:
      wr(static_cast<uint32_t>(
          (static_cast<int64_t>(s1) * static_cast<uint64_t>(rs2)) >> 32));
      if (d.rd != 0) alu_ready_[d.rd] = cycle + cfg_->core.mul_latency;
      ++stats_.mul; ++stats_.instret; next();
      break;
    case Kind::kMulhu:
      wr(static_cast<uint32_t>(
          (static_cast<uint64_t>(rs1) * static_cast<uint64_t>(rs2)) >> 32));
      if (d.rd != 0) alu_ready_[d.rd] = cycle + cfg_->core.mul_latency;
      ++stats_.mul; ++stats_.instret; next();
      break;
    case Kind::kDiv:
      wr(rs2 == 0 ? 0xFFFFFFFFu
                  : (s1 == INT32_MIN && s2 == -1
                         ? static_cast<uint32_t>(INT32_MIN)
                         : static_cast<uint32_t>(s1 / s2)));
      next_issue_cycle_ = cycle + cfg_->core.div_latency;
      ++stats_.div; ++stats_.instret; next();
      break;
    case Kind::kDivu:
      wr(rs2 == 0 ? 0xFFFFFFFFu : rs1 / rs2);
      next_issue_cycle_ = cycle + cfg_->core.div_latency;
      ++stats_.div; ++stats_.instret; next();
      break;
    case Kind::kRem:
      wr(rs2 == 0 ? rs1
                  : (s1 == INT32_MIN && s2 == -1
                         ? 0u
                         : static_cast<uint32_t>(s1 % s2)));
      next_issue_cycle_ = cycle + cfg_->core.div_latency;
      ++stats_.div; ++stats_.instret; next();
      break;
    case Kind::kRemu:
      wr(rs2 == 0 ? rs1 : rs1 % rs2);
      next_issue_cycle_ = cycle + cfg_->core.div_latency;
      ++stats_.div; ++stats_.instret; next();
      break;

    case Kind::kFence: ++stats_.alu; ++stats_.instret; next(); break;
    case Kind::kEcall: halt(regs_[10]); ++stats_.instret; break;
    case Kind::kEbreak: halt(1); ++stats_.instret; break;

    case Kind::kCsrrw:
      wr(d.rd != 0 ? csr_read(d.csr, cycle) : 0);
      csr_write(d.csr, rs1);
      ++stats_.alu; ++stats_.instret; next();
      break;
    case Kind::kCsrrs:
      wr(csr_read(d.csr, cycle));
      if (d.rs1 != 0) csr_write(d.csr, csr_read(d.csr, cycle) | rs1);
      ++stats_.alu; ++stats_.instret; next();
      break;
    case Kind::kCsrrc:
      wr(csr_read(d.csr, cycle));
      if (d.rs1 != 0) csr_write(d.csr, csr_read(d.csr, cycle) & ~rs1);
      ++stats_.alu; ++stats_.instret; next();
      break;
    case Kind::kCsrrwi:
      wr(d.rd != 0 ? csr_read(d.csr, cycle) : 0);
      csr_write(d.csr, static_cast<uint32_t>(d.imm));
      ++stats_.alu; ++stats_.instret; next();
      break;
    case Kind::kCsrrsi:
      wr(csr_read(d.csr, cycle));
      if (d.imm != 0) csr_write(d.csr, csr_read(d.csr, cycle) | static_cast<uint32_t>(d.imm));
      ++stats_.alu; ++stats_.instret; next();
      break;
    case Kind::kCsrrci:
      wr(csr_read(d.csr, cycle));
      if (d.imm != 0) csr_write(d.csr, csr_read(d.csr, cycle) & ~static_cast<uint32_t>(d.imm));
      ++stats_.alu; ++stats_.instret; next();
      break;

    case Kind::kLrW: issue_memory(MemOp::kLoadReserved, rs1, 0, 4, false); break;
    case Kind::kScW: amo(MemOp::kStoreConditional); break;
    case Kind::kAmoSwapW: amo(MemOp::kAmoSwap); break;
    case Kind::kAmoAddW: amo(MemOp::kAmoAdd); break;
    case Kind::kAmoXorW: amo(MemOp::kAmoXor); break;
    case Kind::kAmoAndW: amo(MemOp::kAmoAnd); break;
    case Kind::kAmoOrW: amo(MemOp::kAmoOr); break;
    case Kind::kAmoMinW: amo(MemOp::kAmoMin); break;
    case Kind::kAmoMaxW: amo(MemOp::kAmoMax); break;
    case Kind::kAmoMinuW: amo(MemOp::kAmoMinu); break;
    case Kind::kAmoMaxuW: amo(MemOp::kAmoMaxu); break;

    case Kind::kIllegal:
      MEMPOOL_CHECK_MSG(false, name() << ": illegal instruction 0x" << std::hex
                                      << d.raw << " at pc 0x" << pc_);
  }
}

void SnitchCore::describe(GraphVisitor& v) const {
  Client::describe(v);  // request-port edges
  v.self_ticking();     // a running core issues/stalls every cycle
  if (icache_ != nullptr) v.wakes(icache_, "fetch");
  if (dma_ != nullptr && dma_->drc_component() != nullptr) {
    v.writes_terminal(dma_->drc_component(), "dma.submit");
  }
}

void SnitchCore::save_state(StateSink& s) const {
  for (const uint32_t r : regs_) s.u32(r);
  s.u32(pc_);
  s.b(halted_);
  s.u32(exit_code_);
  s.str(console_);
  rob_.save_state(s);
  for (const bool p : mem_pending_) s.b(p);
  for (const uint64_t c : alu_ready_) s.u64(c);
  s.u64(next_issue_cycle_);
  s.b(ir_valid_);
  s.u32(ir_pc_);
  s.u64(last_cycle_);
  s.u32(mscratch_);
  s.u32(dma_src_);
  s.u32(dma_dst_);
  s.u32(dma_rows_);
  s.u32(dma_src_stride_);
  s.u32(dma_dst_stride_);
  s.u64(stats_.instret);
  s.u64(stats_.cycles);
  s.u64(stats_.stall_fetch);
  s.u64(stats_.stall_raw);
  s.u64(stats_.stall_rob);
  s.u64(stats_.stall_port);
  s.u64(stats_.stall_ctrl);
  s.u64(stats_.alu);
  s.u64(stats_.mul);
  s.u64(stats_.div);
  s.u64(stats_.branches);
  s.u64(stats_.loads_local);
  s.u64(stats_.loads_remote);
  s.u64(stats_.stores_local);
  s.u64(stats_.stores_remote);
  s.u64(stats_.amos);
  s.u64(stats_.dma_submits);
  s.u64(stats_.resp_latency_sum);
  s.u64(stats_.resp_count);
}

void SnitchCore::load_state(StateSource& s) {
  for (uint32_t& r : regs_) r = s.u32();
  pc_ = s.u32();
  halted_ = s.b();
  exit_code_ = s.u32();
  console_ = s.str();
  rob_.load_state(s);
  for (bool& p : mem_pending_) p = s.b();
  for (uint64_t& c : alu_ready_) c = s.u64();
  next_issue_cycle_ = s.u64();
  ir_valid_ = s.b();
  ir_pc_ = s.u32();
  last_cycle_ = s.u64();
  mscratch_ = s.u32();
  dma_src_ = s.u32();
  dma_dst_ = s.u32();
  dma_rows_ = s.u32();
  dma_src_stride_ = s.u32();
  dma_dst_stride_ = s.u32();
  stats_.instret = s.u64();
  stats_.cycles = s.u64();
  stats_.stall_fetch = s.u64();
  stats_.stall_raw = s.u64();
  stats_.stall_rob = s.u64();
  stats_.stall_port = s.u64();
  stats_.stall_ctrl = s.u64();
  stats_.alu = s.u64();
  stats_.mul = s.u64();
  stats_.div = s.u64();
  stats_.branches = s.u64();
  stats_.loads_local = s.u64();
  stats_.loads_remote = s.u64();
  stats_.stores_local = s.u64();
  stats_.stores_remote = s.u64();
  stats_.amos = s.u64();
  stats_.dma_submits = s.u64();
  stats_.resp_latency_sum = s.u64();
  stats_.resp_count = s.u64();
}

}  // namespace mempool
