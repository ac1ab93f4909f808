#include "analysis/value_analysis.hpp"

#include <algorithm>
#include <map>

#include "analysis/transfer_cache.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"
#include "support/fault_inject.hpp"
#include "support/instance_rounds.hpp"
#include "support/thread_pool.hpp"

namespace wcet::analysis {

using isa::Inst;
using isa::Opcode;

namespace {

// Memory words tracked per state before the table collapses to the
// region hull.
constexpr std::size_t max_tracked_words = 8192;
// Visits of a widening point before widening kicks in.
constexpr unsigned widen_delay = 3;
// Width cap on per-address enumeration of imprecise memory accesses:
// an access whose address interval spans more than this many words
// widens to the region hull (TOP) instead of being enumerated.
constexpr std::size_t max_enum_words = 64;

Interval sized_top(int size, bool sign_extend) {
  switch (size) {
  case 1:
    return sign_extend ? Interval::from_signed(-128, 127) : Interval::from_unsigned(0, 255);
  case 2:
    return sign_extend ? Interval::from_signed(-32768, 32767)
                       : Interval::from_unsigned(0, 65535);
  default:
    return Interval::top();
  }
}

} // namespace

AbsState AbsState::entry_state() {
  AbsState s; // registers default to TOP
  s.bottom = false;
  s.regs[isa::reg_zero] = Interval::constant(0);
  return s;
}

bool WrittenRegions::add(const Interval& range) {
  if (range.is_bottom()) return false;
  // Merge when overlapping or nearly adjacent (64-byte slack keeps the
  // list short for consecutive stack slots).
  const Interval slack = Interval::from_unsigned(
      std::max<std::int64_t>(0, range.umin() - 64),
      std::min<std::int64_t>(Interval::word_max, range.umax() + 64));
  for (std::size_t i = 0; i < size_; ++i) {
    Interval& region = regions_[i];
    if (region.overlaps(slack)) {
      const Interval joined = region.join(range);
      if (joined == region) return false;
      region = joined;
      return true;
    }
  }
  if (size_ < capacity) {
    regions_[size_++] = range;
    return true;
  }
  // Collapse everything into one hull (sound, coarse).
  Interval hull = range;
  for (std::size_t i = 0; i < size_; ++i) hull = hull.join(regions_[i]);
  regions_[0] = hull;
  size_ = 1;
  return true;
}

bool WrittenRegions::operator==(const WrittenRegions& other) const {
  return std::equal(begin(), end(), other.begin(), other.end());
}

bool AbsState::possibly_written(const Interval& range) const {
  for (const Interval& region : written) {
    if (region.overlaps(range)) return true;
  }
  return false;
}

bool AbsState::operator==(const AbsState& other) const {
  if (bottom || other.bottom) return bottom == other.bottom;
  for (int r = 0; r < isa::num_registers; ++r) {
    if (regs[r] != other.regs[r]) return false;
  }
  return mem == other.mem && written == other.written;
}

bool AbsState::join_with(const AbsState& other) {
  if (other.bottom) return false;
  if (bottom) {
    *this = other;
    return true;
  }
  bool changed = false;
  for (int r = 0; r < isa::num_registers; ++r) {
    const Interval joined = regs[r].join(other.regs[r]);
    if (joined != regs[r]) {
      regs[r] = joined;
      changed = true;
    }
  }
  for (const Interval& region : other.written) {
    if (written.add(region)) changed = true;
  }
  // Tracked words: a key absent on one side means "possibly any value
  // consistent with the written hull" there; since every tracked key is
  // inside the hull by construction, the sound join for a one-sided key
  // is TOP — represented by dropping the key. Both sides are sorted, so
  // this is a single merge-join pass. A pointer-identical table needs
  // no pass at all (join(x, x) = x), and a dry run precedes the mutating
  // merge so an unchanged table is never detached from its sharers.
  if (mem.same_as(other.mem)) return changed;
  bool mem_changes = false;
  {
    auto ot = other.mem->begin();
    for (const auto& [key, value] : *mem) {
      while (ot != other.mem->end() && ot->first < key) ++ot;
      if (ot == other.mem->end() || ot->first != key) {
        mem_changes = true; // one-sided -> TOP (dropped)
        break;
      }
      const Interval joined = value.join(ot->second);
      if (joined != value || joined.is_top()) {
        mem_changes = true;
        break;
      }
    }
  }
  if (!mem_changes) return changed;
  auto ot = other.mem->begin();
  mem.mut().retain([&](std::uint32_t key, Interval& value) {
    while (ot != other.mem->end() && ot->first < key) ++ot;
    if (ot == other.mem->end() || ot->first != key) return false; // one-sided -> TOP
    const Interval joined = value.join(ot->second);
    if (joined != value) value = joined;
    return !value.is_top();
  });
  return true;
}

void AbsState::widen_from(const AbsState& older) {
  if (bottom || older.bottom) return;
  for (int r = 0; r < isa::num_registers; ++r) {
    regs[r] = older.regs[r].widen(regs[r]);
  }
  // Written regions only grow through add_written; the region-count cap
  // bounds the chain, so no dedicated widening is needed here.
  // A table shared with `older` widens to itself (widen(x, x) = x):
  // skip without detaching. Otherwise dry-run first — an unchanged
  // table must not be detached from its sharers (same discipline as
  // join_with).
  if (mem.same_as(older.mem)) return;
  bool mem_changes = false;
  {
    auto probe = older.mem->begin();
    for (const auto& [key, value] : *mem) {
      while (probe != older.mem->end() && probe->first < key) ++probe;
      Interval widened = value;
      if (probe != older.mem->end() && probe->first == key) {
        widened = probe->second.widen(value);
      }
      if (widened != value || widened.is_top()) {
        mem_changes = true;
        break;
      }
    }
  }
  if (!mem_changes) return;
  auto old_it = older.mem->begin();
  mem.mut().retain([&](std::uint32_t key, Interval& value) {
    while (old_it != older.mem->end() && old_it->first < key) ++old_it;
    if (old_it != older.mem->end() && old_it->first == key) {
      value = old_it->second.widen(value);
    }
    return !value.is_top();
  });
}

ValueAnalysis::ValueAnalysis(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                             const mem::MemoryMap& memmap, const Options& options,
                             std::vector<int> schedule_priorities)
    : sg_(sg), loops_(loops), memmap_(memmap), options_(options),
      schedule_priorities_(std::move(schedule_priorities)) {
  WCET_CHECK(schedule_priorities_.size() == sg.nodes().size(),
             "ValueAnalysis needs one schedule priority per supergraph node");
  in_.resize(sg.nodes().size());
  edge_feasible_.assign(sg.edges().size(), false);
  accesses_.resize(sg.nodes().size());
  is_widen_point_.assign(sg.nodes().size(), false);
  for (const cfg::Loop& loop : loops.loops()) {
    for (const int entry : loop.entries) {
      is_widen_point_[static_cast<std::size_t>(entry)] = true;
    }
  }
}

Interval ValueAnalysis::confine(const Interval& addr, std::uint32_t fn_entry) const {
  if (addr.is_bottom() || addr.is_constant()) return addr;
  const auto it = options_.access_facts.find(fn_entry);
  if (it == options_.access_facts.end()) return addr;
  Interval hull = Interval::bottom();
  for (const annot::AccessRange& range : it->second) {
    hull = hull.join(Interval::from_unsigned(
        range.base, static_cast<std::int64_t>(range.base) + range.size - 1));
  }
  if (hull.is_bottom()) return addr;
  const Interval met = addr.meet(hull);
  return met.is_bottom() ? hull : met;
}

Interval ValueAnalysis::implicit_word(const AbsState& state, std::uint32_t addr) const {
  const mem::Region& region = memmap_.region_for(addr);
  if (region.io) return Interval::top();
  const isa::Section* section = sg_.program().image().section_at(addr);
  const bool immutable = section != nullptr && !section->writable;
  if (!immutable) {
    // A store may have clobbered it.
    const Interval cell = Interval::from_unsigned(addr, static_cast<std::int64_t>(addr) + 3);
    if (state.possibly_written(cell)) return Interval::top();
  }
  // Initial contents: image bytes where mapped, zero elsewhere (the
  // simulator's fresh-memory default). A word inside one section is
  // read in one go.
  if (section != nullptr) {
    if (const auto word = section->read_word(addr)) return Interval::constant(*word);
  }
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    const auto byte = sg_.program().image().read_byte(addr + static_cast<std::uint32_t>(i));
    value = (value << 8) | (byte ? *byte : 0);
  }
  return Interval::constant(value);
}

Interval ValueAnalysis::read_mem(const AbsState& state, const Interval& addr, int size,
                                 bool sign_extend) const {
  if (addr.is_bottom()) return Interval::bottom();
  // io regions: volatile, unknown value.
  {
    bool touches_io = false;
    for (const auto& region : memmap_.regions()) {
      if (!region.io) continue;
      const Interval span = Interval::from_unsigned(
          region.base, static_cast<std::int64_t>(region.base) + region.size - 1);
      if (addr.overlaps(span)) touches_io = true;
    }
    if (touches_io) return sized_top(size, sign_extend);
  }

  const auto read_word_at = [&](std::uint32_t a) -> Interval {
    const auto it = state.mem->find(a);
    return it != state.mem->end() ? it->second : implicit_word(state, a);
  };

  if (size == 4) {
    // Width cap on the enumeration: only walk word-aligned candidate
    // addresses, and only when the interval spans at most
    // `max_enum_words` words. Anything wider (e.g. a near-TOP address)
    // widens straight to the region hull — enumerating it would make
    // analysis time explode for zero precision (every word joins to TOP
    // anyway).
    if (addr.size() <= max_enum_words * 4) {
      Interval result = Interval::bottom();
      const std::int64_t first = (addr.umin() + 3) & ~std::int64_t{3};
      for (std::int64_t a = first; a <= addr.umax(); a += 4) {
        result = result.join(read_word_at(static_cast<std::uint32_t>(a)));
        if (result.is_top()) break;
      }
      return result.is_bottom() ? Interval::top() : result;
    }
    return Interval::top();
  }

  // Sub-word loads: exact only for a constant address within a constant
  // containing word.
  if (const auto ca = addr.as_constant()) {
    const std::uint32_t word_addr = *ca & ~3u;
    const Interval word = read_word_at(word_addr);
    if (const auto wc = word.as_constant()) {
      const unsigned shift = (*ca & 3u) * 8;
      std::uint32_t raw = (*wc >> shift);
      if (size == 1) {
        raw &= 0xFF;
        if (sign_extend) return Interval::constant(static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(raw))));
        return Interval::constant(raw);
      }
      raw &= 0xFFFF;
      if (sign_extend) return Interval::constant(static_cast<std::uint32_t>(
          static_cast<std::int32_t>(static_cast<std::int16_t>(raw))));
      return Interval::constant(raw);
    }
  }
  return sized_top(size, sign_extend);
}

void ValueAnalysis::write_mem(AbsState& state, const Interval& addr, int size,
                              Interval value, std::uint32_t fn_entry) const {
  if (addr.is_bottom()) return;
  const Interval confined = confine(addr, fn_entry);
  const Interval touched = Interval::from_unsigned(
      confined.umin(), std::min<std::int64_t>(confined.umax() + size - 1, Interval::word_max));
  state.add_written(touched);

  if (const auto ca = confined.as_constant()) {
    const std::uint32_t a = *ca;
    if (size == 4 && (a & 3u) == 0) {
      if (value.is_top()) {
        if (state.mem->contains(a)) state.mem.mut().erase(a);
      } else {
        state.mem.mut()[a] = value; // strong update
      }
    } else {
      // Sub-word store: compose exactly when everything is constant.
      const std::uint32_t word_addr = a & ~3u;
      const auto it = state.mem->find(word_addr);
      const Interval word = it != state.mem->end() ? it->second : implicit_word(state, word_addr);
      const auto wc = word.as_constant();
      const auto vc = value.as_constant();
      if (wc && vc && (size != 2 || (a & 1u) == 0)) {
        const unsigned shift = (a & 3u) * 8;
        const std::uint32_t mask = (size == 1 ? 0xFFu : 0xFFFFu) << shift;
        const std::uint32_t composed = (*wc & ~mask) | ((*vc << shift) & mask);
        state.mem.mut()[word_addr] = Interval::constant(composed);
      } else if (state.mem->contains(word_addr)) {
        state.mem.mut().erase(word_addr);
      }
    }
  } else if (confined.size() <= max_enum_words * 4) {
    // Weak update on every word the store may touch (width-capped, see
    // read_mem; wider stores take the hull path below). Detach the COW
    // table only when some tracked word is actually hit.
    const std::uint32_t first = static_cast<std::uint32_t>(confined.umin()) & ~3u;
    for (std::int64_t a = first; a <= confined.umax() + size - 1; a += 4) {
      const auto word_addr = static_cast<std::uint32_t>(a);
      if (!state.mem->contains(word_addr)) continue; // untracked: hull already poisons it
      auto& table = state.mem.mut();
      const auto it = table.find(word_addr);
      if (size == 4 && !value.is_top()) {
        it->second = it->second.join(value);
        if (it->second.is_top()) table.erase(it);
      } else {
        table.erase(it);
      }
    }
  } else {
    // Wide store: every tracked word inside the range is lost. One
    // linear compaction pass instead of per-key erasure (dry-scanned so
    // a miss never detaches the shared table).
    const auto doomed = [&](std::uint32_t key) {
      return static_cast<std::int64_t>(key) + 3 >= confined.umin() &&
             static_cast<std::int64_t>(key) <= confined.umax() + size - 1;
    };
    bool any_doomed = false;
    for (const auto& [key, tracked] : *state.mem) {
      (void)tracked;
      if (doomed(key)) {
        any_doomed = true;
        break;
      }
    }
    if (any_doomed) {
      state.mem.mut().retain(
          [&](std::uint32_t key, Interval&) { return !doomed(key); });
    }
  }
  if (state.mem->size() > max_tracked_words) {
    state.mem.reset(); // sound: hull covers every tracked key
  }
}

void ValueAnalysis::transfer_inst(const Inst& inst, std::uint32_t pc, AbsState& state,
                                  std::uint32_t fn_entry,
                                  std::vector<AccessInfo>* accesses) const {
  if (state.bottom) return;
  const Interval rs1 = state.regs[inst.rs1];
  const Interval rs2 = state.regs[inst.rs2];
  const auto set_rd = [&](const Interval& value) {
    if (inst.rd != isa::reg_zero) state.regs[inst.rd] = value;
  };
  const auto imm_u = [&] {
    return Interval::constant(static_cast<std::uint32_t>(inst.imm));
  };

  switch (inst.op) {
  case Opcode::add: set_rd(rs1.add(rs2)); break;
  case Opcode::sub: set_rd(rs1.sub(rs2)); break;
  case Opcode::and_: set_rd(rs1.bit_and(rs2)); break;
  case Opcode::or_: set_rd(rs1.bit_or(rs2)); break;
  case Opcode::xor_: set_rd(rs1.bit_xor(rs2)); break;
  case Opcode::sll: set_rd(rs1.shl(rs2)); break;
  case Opcode::srl: set_rd(rs1.shr_u(rs2)); break;
  case Opcode::sra: set_rd(rs1.shr_s(rs2)); break;
  case Opcode::slt: set_rd(rs1.compare(Pred::lt_s, rs2)); break;
  case Opcode::sltu: set_rd(rs1.compare(Pred::lt_u, rs2)); break;
  case Opcode::mul: set_rd(rs1.mul(rs2)); break;
  case Opcode::mulhu: set_rd(rs1.mulh_u(rs2)); break;
  case Opcode::divu: set_rd(rs1.div_u(rs2)); break;
  case Opcode::remu: set_rd(rs1.rem_u(rs2)); break;
  case Opcode::div_: set_rd(rs1.div_s(rs2)); break;
  case Opcode::rem_: set_rd(rs1.rem_s(rs2)); break;
  case Opcode::cmovz:
    if (rs2.is_constant() && *rs2.as_constant() == 0) set_rd(rs1);
    else if (!rs2.contains(0)) { /* rd unchanged */ }
    else set_rd(state.regs[inst.rd].join(rs1));
    break;
  case Opcode::cmovnz:
    if (!rs2.contains(0)) set_rd(rs1);
    else if (rs2.is_constant()) { /* rs2 == 0: rd unchanged */ }
    else set_rd(state.regs[inst.rd].join(rs1));
    break;
  case Opcode::addi: set_rd(rs1.add(imm_u())); break;
  case Opcode::andi: set_rd(rs1.bit_and(imm_u())); break;
  case Opcode::ori: set_rd(rs1.bit_or(imm_u())); break;
  case Opcode::xori: set_rd(rs1.bit_xor(imm_u())); break;
  case Opcode::slli: set_rd(rs1.shl(Interval::constant(static_cast<std::uint32_t>(inst.imm & 31)))); break;
  case Opcode::srli: set_rd(rs1.shr_u(Interval::constant(static_cast<std::uint32_t>(inst.imm & 31)))); break;
  case Opcode::srai: set_rd(rs1.shr_s(Interval::constant(static_cast<std::uint32_t>(inst.imm & 31)))); break;
  case Opcode::slti: set_rd(rs1.compare(Pred::lt_s, imm_u())); break;
  case Opcode::sltiu: set_rd(rs1.compare(Pred::lt_u, imm_u())); break;
  case Opcode::lui:
    set_rd(Interval::constant(static_cast<std::uint32_t>(inst.imm) << 16));
    break;
  case Opcode::lw:
  case Opcode::lh:
  case Opcode::lhu:
  case Opcode::lb:
  case Opcode::lbu: {
    Interval addr = rs1.add(imm_u());
    addr = confine(addr, fn_entry);
    if (accesses != nullptr) {
      accesses->push_back({pc, false, inst.access_size(), addr});
    }
    const bool sign = inst.op == Opcode::lh || inst.op == Opcode::lb;
    set_rd(read_mem(state, addr, inst.access_size(), sign));
    break;
  }
  case Opcode::sw:
  case Opcode::sh:
  case Opcode::sb: {
    Interval addr = rs1.add(imm_u());
    addr = confine(addr, fn_entry);
    if (accesses != nullptr) {
      accesses->push_back({pc, true, inst.access_size(), addr});
    }
    write_mem(state, addr, inst.access_size(), state.regs[inst.rd], fn_entry);
    break;
  }
  case Opcode::beq:
  case Opcode::bne:
  case Opcode::blt:
  case Opcode::bge:
  case Opcode::bltu:
  case Opcode::bgeu:
    break; // refinement happens on the edges
  case Opcode::jal:
  case Opcode::jalr:
    set_rd(Interval::constant(pc + 4));
    break;
  case Opcode::ecall:
    // Environment call clobbers the caller-saved registers.
    for (const std::uint8_t r : {isa::reg_a0, isa::reg_a1, isa::reg_a2, isa::reg_a3,
                                 isa::reg_t0, isa::reg_t1, isa::reg_t2}) {
      state.regs[r] = Interval::top();
    }
    break;
  case Opcode::halt:
    break;
  }
}

void ValueAnalysis::transfer_block(int node, AbsState& state,
                                   std::vector<AccessInfo>* accesses) const {
  const cfg::SgNode& n = sg_.node(node);
  std::uint32_t pc = n.block->begin;
  for (const Inst& inst : n.block->insts) {
    transfer_inst(inst, pc, state, n.fn_entry, accesses);
    pc += 4;
  }
}

AbsState ValueAnalysis::transfer_node(int node, AbsState state) const {
  transfer_block(node, state, nullptr);
  return state;
}

AbsState ValueAnalysis::refine_along_edge(int edge, AbsState state) const {
  if (state.bottom) return state;
  const cfg::SgEdge& e = sg_.edge(edge);
  const cfg::SgNode& from = sg_.node(e.from);
  const cfg::CfgBlock& block = *from.block;
  if (block.insts.empty()) return state;
  const Inst& term = block.terminator();

  if (term.is_conditional_branch() &&
      (e.kind == cfg::EdgeKind::taken || e.kind == cfg::EdgeKind::fall)) {
    const Pred p = e.kind == cfg::EdgeKind::taken ? term.branch_pred()
                                                  : negate(term.branch_pred());
    const Interval a = state.regs[term.rs1];
    const Interval b = state.regs[term.rs2];
    const Interval a_refined = a.refine(p, b);
    // Mirror refinement for the right-hand side, using the weaker (but
    // sound) non-strict forms where needed.
    Interval b_refined = b;
    switch (p) {
    case Pred::eq: b_refined = b.meet(a); break;
    case Pred::ne:
      if (a.is_constant()) b_refined = b.refine(Pred::ne, a);
      break;
    case Pred::lt_s: b_refined = b.refine(Pred::ge_s, a); break;
    case Pred::ge_s:
      b_refined = b.meet(Interval::from_signed(INT32_MIN, a.smax()).is_bottom()
                             ? b
                             : Interval::from_signed(INT32_MIN, a.smax()));
      break;
    case Pred::lt_u: b_refined = b.refine(Pred::ge_u, a); break;
    case Pred::ge_u:
      b_refined = b.meet(Interval::from_unsigned(0, a.umax()));
      break;
    }
    if (a_refined.is_bottom() || b_refined.is_bottom()) {
      state.bottom = true;
      return state;
    }
    state.regs[term.rs1] = a_refined;
    if (term.rs2 != term.rs1) state.regs[term.rs2] = b_refined;
    // r0 must stay the constant zero (refinement can only have shrunk
    // it to exactly {0} or bottom, handled above).
    state.regs[isa::reg_zero] = Interval::constant(0);
    return state;
  }

  if (block.term == cfg::Term::indirect_jump && e.kind == cfg::EdgeKind::taken) {
    // Landing on a specific target pins the jalr operand.
    const cfg::SgNode& to = sg_.node(e.to);
    const std::uint32_t target = to.block->begin;
    const Interval pinned = Interval::constant(target - static_cast<std::uint32_t>(term.imm));
    const Interval refined = state.regs[term.rs1].meet(pinned);
    if (refined.is_bottom()) {
      state.bottom = true;
      return state;
    }
    state.regs[term.rs1] = refined;
  }
  return state;
}

std::uint64_t ValueAnalysis::tracked_state_bytes() const {
  // An interval is two 32-bit bounds; a tracked word adds its address.
  constexpr std::uint64_t interval_bytes = 8;
  constexpr std::uint64_t word_bytes = sizeof(std::uint32_t) + interval_bytes;
  std::uint64_t bytes = 0;
  for (const AbsState& state : in_) {
    if (state.bottom) continue;
    bytes += interval_bytes * (isa::num_registers + state.written.size());
    bytes += word_bytes * state.mem->size(); // null COW table reads as empty
  }
  return bytes;
}

void ValueAnalysis::run(ThreadPool* pool, TransferCache* transfers,
                        const AnalysisGovernor* governor) {
  WCET_CHECK(transfers != nullptr, "ValueAnalysis::run needs the shared TransferCache");
  const std::size_t num_nodes = sg_.nodes().size();
  const std::size_t num_instances = sg_.instances().size();
  std::vector<unsigned> visits(num_nodes, 0);

  // Per-instance round scheduling (support/instance_rounds.hpp): within
  // an instance, nodes iterate in loop-nest order, so each loop
  // stabilises before the code after it is visited.
  InstanceRoundEngine engine(sg_, loops_, schedule_priorities_);
  engine.set_governor(governor);

  // Flipped at a round barrier once the visit/state budget (or the
  // deadline) runs out, and always recorded in the governor's ledger;
  // read by the next round's workers — the round barrier orders the
  // write before every subsequent read. From then on every growing join
  // jumps to the coarse state below, which is why an early trip is
  // still sound AND monotone: the coarse state dominates every state the
  // remaining iterations could have produced.
  bool force_coarse = degraded_;

  // Join `along` into `target`'s in-state, widening at loop entries;
  // returns true when the state grew. The forest is built from SCCs, so
  // every cycle passes a loop entry: widening alone ends the fixpoint.
  const auto join_into = [&](const int target, const AbsState& along) -> bool {
    AbsState& tin = in_[static_cast<std::size_t>(target)];
    const bool widen_now = is_widen_point_[static_cast<std::size_t>(target)] &&
                           visits[static_cast<std::size_t>(target)] >= widen_delay;
    if (!widen_now && !force_coarse) {
      // Hot path: join in place; join_with reports changes exactly, so
      // no state copy or deep equality check is needed.
      return tin.join_with(along);
    }
    AbsState updated = tin;
    if (!updated.join_with(along)) return false;
    if (widen_now) updated.widen_from(tin);
    if (force_coarse) {
      updated = AbsState::entry_state();
      updated.add_written(Interval::top());
    }
    if (updated == tin) return false;
    tin = std::move(updated);
    return true;
  };

  in_[static_cast<std::size_t>(sg_.entry_node())] = AbsState::entry_state();
  engine.push(sg_.entry_node());

  // Instance rounds: dirty instances converge their local fixpoints (in
  // parallel on the pool — they touch disjoint nodes/edges/visit
  // slots); cross-instance call/ret joins are buffered per instance and
  // applied afterwards in ascending (instance, edge) order (std::map
  // order). The round/merge order is a pure function of the graph,
  // never of thread timing.
  std::vector<std::map<int, AbsState>> cross_out(num_instances);
  engine.run(
      pool,
      [&](const int instance, const int node) {
        auto& buffered = cross_out[static_cast<std::size_t>(instance)];
        ++visits[static_cast<std::size_t>(node)];
        AbsState out = in_[static_cast<std::size_t>(node)];
        transfer_block(node, out, nullptr);
        const std::vector<int>& succs = sg_.node(node).succ_edges;
        for (std::size_t k = 0; k < succs.size(); ++k) {
          const int eid = succs[k];
          // The last successor refines the out-state itself, not a copy.
          AbsState along =
              refine_along_edge(eid, k + 1 == succs.size() ? std::move(out) : AbsState(out));
          if (along.bottom) {
            // Note: feasibility is monotone — once feasible, stays
            // feasible.
            continue;
          }
          const int target = sg_.edge(eid).to;
          if (sg_.node(target).instance != instance) {
            // Call/ret edge: defer to the sequential merge step.
            const auto [it, fresh] = buffered.try_emplace(eid, std::move(along));
            if (!fresh) it->second.join_with(along);
            continue;
          }
          edge_feasible_[static_cast<std::size_t>(eid)] = 1;
          if (join_into(target, along)) engine.push(target);
        }
      },
      [&](const int instance) {
        auto& buffered = cross_out[static_cast<std::size_t>(instance)];
        for (auto& [eid, state] : buffered) {
          edge_feasible_[static_cast<std::size_t>(eid)] = 1;
          const int target = sg_.edge(eid).to;
          if (join_into(target, state)) engine.push(target);
        }
        buffered.clear();
      },
      [&](const std::uint64_t round_pops) -> bool {
        WCET_FAULT_POINT("value:round");
        if (governor == nullptr || force_coarse) return true;
        // Budget accounting at the deterministic round barrier only:
        // the pop total is a pure function of the graph and domain.
        const char* trigger = nullptr;
        if (!governor->consume_value_visits(round_pops)) {
          trigger = "visit budget";
        } else if (governor->budget().max_state_bytes != 0 &&
                   governor->state_bytes_exceeded(tracked_state_bytes())) {
          trigger = "state-byte budget";
        } else if (governor->deadline_exceeded()) {
          trigger = "deadline";
        }
        if (trigger != nullptr) {
          force_coarse = true;
          degraded_ = true;
          governor->record("value", trigger,
                           "forced coarse convergence: remaining joins jump to the "
                           "near-top state, loosening loop/cache/path precision "
                           "(bound stays a true upper bound)");
        }
        // Never stop the engine: an un-iterated fixpoint would undercut
        // the least fixpoint, which is unsound. Coarsening converges in
        // at most one extra visit per node.
        return true;
      });

  // Final pass: record access address intervals per node and publish
  // node out-states to the shared transfer cache (computed here
  // anyway). Nodes are independent: fan out over the pool.
  transfers->attach(*this);
  const auto record_node = [&](std::size_t idx) {
    const cfg::SgNode& n = sg_.nodes()[idx];
    auto& recorded = accesses_[idx];
    recorded.clear();
    if (in_[idx].bottom) return;
    AbsState state = in_[idx];
    transfer_block(n.id, state, &recorded);
    transfers->set_out_state(n.id, std::move(state));
  };
  parallel_for(pool, num_nodes, record_node);
}

Interval ValueAnalysis::reg_before(int node, std::uint32_t pc, std::uint8_t reg) const {
  const cfg::SgNode& n = sg_.node(node);
  AbsState state = in_[static_cast<std::size_t>(node)];
  if (state.bottom) return Interval::bottom();
  std::uint32_t walk = n.block->begin;
  for (const Inst& inst : n.block->insts) {
    if (walk == pc) break;
    transfer_inst(inst, walk, state, n.fn_entry, nullptr);
    walk += 4;
  }
  return state.bottom ? Interval::bottom() : state.regs[reg];
}

std::map<std::uint32_t, std::vector<std::uint32_t>>
ValueAnalysis::resolved_indirect_targets() const {
  std::map<std::uint32_t, std::vector<std::uint32_t>> result;
  for (const cfg::SgNode& n : sg_.nodes()) {
    const cfg::CfgBlock& block = *n.block;
    if (!block.indirect_unresolved) continue;
    if (in_[static_cast<std::size_t>(n.id)].bottom) continue;
    const Inst& term = block.terminator();
    const Interval base = reg_before(n.id, block.term_pc(), term.rs1);
    const Interval target = base.add(Interval::constant(static_cast<std::uint32_t>(term.imm)));
    if (const auto c = target.as_constant()) {
      result[block.term_pc()].push_back(*c & ~3u);
    }
  }
  return result;
}

} // namespace wcet::analysis
