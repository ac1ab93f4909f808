#include "analysis/loop_bounds.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/transfer_cache.hpp"
#include "support/diag.hpp"

namespace wcet::analysis {

using isa::Inst;
using isa::Opcode;

LoopBoundAnalysis::LoopBoundAnalysis(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                                     const cfg::Dominators& doms, const ValueAnalysis& values,
                                     const TransferCache* transfers)
    : sg_(sg), loops_(loops), doms_(doms), values_(values), transfers_(transfers) {
  WCET_CHECK(transfers_ != nullptr && transfers_->values() == &values_,
             "LoopBoundAnalysis needs the TransferCache its ValueAnalysis published into");
}

namespace {
// Bounds beyond this are treated as "not found": they arise from
// unconstrained (input-data dependent) limits and would only disguise an
// effectively unbounded loop as a bounded one (cf. Section 3.2).
constexpr std::uint64_t plausible_trip_limit = 1u << 24;

std::optional<std::uint64_t> plausible(std::uint64_t trips) {
  if (trips > plausible_trip_limit) return std::nullopt;
  return trips;
}
} // namespace

std::optional<std::uint64_t> LoopBoundAnalysis::affine_trip_count(const Interval& init,
                                                                  std::int32_t stride,
                                                                  Pred stay,
                                                                  const Interval& limit) {
  if (init.is_bottom() || limit.is_bottom()) return 0;
  if (stride == 0) return std::nullopt;
  const std::int64_t c = stride;

  switch (stay) {
  case Pred::eq:
    // stay while i == L: one step changes i (stride != 0), so at most one
    // re-test can still see equality only if L also equals the new value —
    // impossible for a loop-invariant L. Bound: 1.
    return 1;
  case Pred::ne: {
    // stay while i != L: bounded only for unit strides that cannot step
    // over L, approaching from the correct side.
    if (c != 1 && c != -1) return std::nullopt;
    const std::int64_t i_lo = init.smin();
    const std::int64_t i_hi = init.smax();
    const std::int64_t l_lo = limit.smin();
    const std::int64_t l_hi = limit.smax();
    if (c == 1) {
      if (i_lo > l_lo) return std::nullopt; // may start beyond L and wrap
      return plausible(static_cast<std::uint64_t>(l_hi - i_lo));
    }
    if (i_hi < l_hi) return std::nullopt;
    return plausible(static_cast<std::uint64_t>(i_hi - l_lo));
  }
  case Pred::lt_s: {
    if (c <= 0) return std::nullopt; // moving away from an upper limit
    const std::int64_t i0 = init.smin();
    const std::int64_t limit_max = limit.smax();
    // Wrap guard: the final increment must not overflow back below L.
    if (limit_max - 1 + c > INT32_MAX) return std::nullopt;
    if (i0 >= limit_max) return 0;
    const std::int64_t distance = limit_max - i0;
    return plausible(static_cast<std::uint64_t>((distance + c - 1) / c));
  }
  case Pred::lt_u: {
    if (c <= 0) return std::nullopt;
    const std::int64_t i0 = init.umin();
    const std::int64_t limit_max = limit.umax();
    if (limit_max - 1 + c > static_cast<std::int64_t>(UINT32_MAX)) return std::nullopt;
    if (i0 >= limit_max) return 0;
    const std::int64_t distance = limit_max - i0;
    return plausible(static_cast<std::uint64_t>((distance + c - 1) / c));
  }
  case Pred::ge_s: {
    if (c >= 0) return std::nullopt; // must move down towards the limit
    const std::int64_t i0 = init.smax();
    const std::int64_t limit_min = limit.smin();
    if (limit_min + c < INT32_MIN) return std::nullopt; // wrap below
    if (i0 < limit_min) return 0;
    return plausible(static_cast<std::uint64_t>((i0 - limit_min) / (-c)) + 1);
  }
  case Pred::ge_u: {
    if (c >= 0) return std::nullopt;
    const std::int64_t i0 = init.umax();
    const std::int64_t limit_min = limit.umin();
    if (limit_min + c < 0) return std::nullopt;
    if (i0 < limit_min) return 0;
    return plausible(static_cast<std::uint64_t>((i0 - limit_min) / (-c)) + 1);
  }
  }
  return std::nullopt;
}

namespace {

struct CounterUpdate {
  int node = -1;
  std::int32_t stride = 0;
};

} // namespace

struct LoopBoundAnalysis::Scratch {
  struct RegWrite {
    int node = -1;
    int instance = -1;
    bool is_update = false;
    std::int32_t stride = 0;
  };
  struct SlotStore {
    std::uint32_t addr = 0;
    int node = -1;
    std::uint32_t pc = 0;
  };
  struct SlotUpdate {
    std::uint32_t addr = 0;
    int node = -1;
    std::uint32_t store_pc = 0;
    std::int32_t stride = 0;
  };
  // (instance, reg) -> sandwich verdict, memoized per loop.
  std::vector<std::pair<std::pair<int, std::uint8_t>, bool>> sandwiches;
  std::vector<RegWrite> writes[isa::num_registers];
  std::vector<SlotStore> slot_stores; // sorted by address before use
  std::vector<Interval> wild_stores;
  std::vector<SlotUpdate> slot_updates; // ascending address

  void reset() {
    sandwiches.clear();
    for (auto& w : writes) w.clear();
    slot_stores.clear();
    wild_stores.clear();
    slot_updates.clear();
  }
};

std::optional<std::uint64_t> LoopBoundAnalysis::analyze_loop(const cfg::Loop& loop,
                                                             std::string& detail,
                                                             Scratch& scratch) const {
  if (loop.irreducible) {
    detail = "irreducible loop (multiple entries): no automatic bound; "
             "annotation required";
    return std::nullopt;
  }

  // Callee-saved registers are written inside called functions (save /
  // home / restore); those writes do not change the register's value
  // across the call when the callee "sandwiches" it: the instance's
  // entry block saves the register to a constant stack slot, every
  // return block restores it from the same slot as the last write, and
  // no other store in the loop can alias the slot. Writes inside such an
  // instance (or below one on the call chain) are ignored for counter
  // detection — the value provably survives the call.
  const auto instance_sandwiches = [&](int instance_id, std::uint8_t reg) -> bool {
    const cfg::Instance& instance = sg_.instances()[static_cast<std::size_t>(instance_id)];
    // Locate the instance's entry node and its save slot for `reg`.
    std::optional<std::uint32_t> slot;
    std::uint32_t save_pc = 0;
    for (const int node_id : loop.nodes) {
      const cfg::SgNode& node = sg_.node(node_id);
      if (node.instance != instance_id || node.block->begin != instance.fn_entry) continue;
      std::uint32_t pc = node.block->begin;
      for (const Inst& inst : node.block->insts) {
        if (inst.is_store() && inst.access_size() == 4 && inst.rd == reg) {
          for (const AccessInfo& access : values_.accesses(node_id)) {
            if (access.pc == pc && access.is_store) {
              slot = access.addr.as_constant();
              save_pc = pc;
            }
          }
        }
        pc += 4;
      }
      break;
    }
    if (!slot) return false;
    // Every return block of the instance must end with a restoring load
    // (no later write to reg before the terminator).
    bool found_ret = false;
    for (const int node_id : loop.nodes) {
      const cfg::SgNode& node = sg_.node(node_id);
      if (node.instance != instance_id || node.block->term != cfg::Term::ret) continue;
      found_ret = true;
      bool restored = false;
      for (int i = static_cast<int>(node.block->insts.size()) - 1; i >= 0; --i) {
        const Inst& inst = node.block->insts[static_cast<std::size_t>(i)];
        if (!inst.writes_rd() || inst.rd != reg) continue;
        if (inst.is_load() && inst.access_size() == 4) {
          const std::uint32_t load_pc =
              node.block->begin + static_cast<std::uint32_t>(i) * 4;
          for (const AccessInfo& access : values_.accesses(node_id)) {
            if (access.pc == load_pc && !access.is_store &&
                access.addr.as_constant() == slot) {
              restored = true;
            }
          }
        }
        break; // last write decides
      }
      if (!restored) return false;
    }
    if (!found_ret) return false;
    // The slot must not be clobbered between save and restore. Control
    // stays inside the instance's call subtree during that window, so
    // only stores from subtree nodes matter (caller code may reuse the
    // same stack addresses, but never while this frame is live).
    const auto in_subtree = [&](int other_instance) {
      for (int walk = other_instance; walk >= 0;
           walk = sg_.instances()[static_cast<std::size_t>(walk)].caller_instance) {
        if (walk == instance_id) return true;
      }
      return false;
    };
    for (const int node_id : loop.nodes) {
      const cfg::SgNode& node = sg_.node(node_id);
      if (!in_subtree(node.instance)) continue;
      for (const AccessInfo& access : values_.accesses(node_id)) {
        if (access.is_store && access.pc != save_pc && access.addr.contains(*slot)) {
          return false;
        }
      }
    }
    return true;
  };

  scratch.reset();
  const auto sandwiched = [&](int instance_id, std::uint8_t reg) {
    const auto key = std::make_pair(instance_id, reg);
    for (const auto& [k, verdict] : scratch.sandwiches) {
      if (k == key) return verdict;
    }
    const bool result = instance_sandwiches(instance_id, reg);
    scratch.sandwiches.emplace_back(key, result);
    return result;
  };
  // True when a write in `instance_id` is shielded from `base_instance`
  // by a sandwiching instance on the call chain.
  const auto write_shielded = [&](int instance_id, int base_instance, std::uint8_t reg) {
    for (int walk = instance_id; walk >= 0 && walk != base_instance;
         walk = sg_.instances()[static_cast<std::size_t>(walk)].caller_instance) {
      if (sandwiched(walk, reg)) return true;
    }
    return false;
  };

  // Collect register writes across the loop body.
  using RegWrite = Scratch::RegWrite;
  auto& writes = scratch.writes;
  for (const int node_id : loop.nodes) {
    const cfg::SgNode& node = sg_.node(node_id);
    for (const Inst& inst : node.block->insts) {
      if (!inst.writes_rd()) continue;
      RegWrite w;
      w.node = node_id;
      w.instance = node.instance;
      if (inst.op == Opcode::addi && inst.rs1 == inst.rd && inst.imm != 0) {
        w.is_update = true;
        w.stride = static_cast<std::int32_t>(inst.imm);
      }
      writes[inst.rd].push_back(w);
    }
  }

  CounterUpdate update[isa::num_registers];
  // `base_instance`: the instance the exit branch lives in. Writes in
  // called instances are ignored when a save/restore sandwich shields
  // them; among the remaining writes exactly one addi-update may remain.
  const auto is_counter = [&](std::uint8_t reg, int base_instance) {
    if (reg == isa::reg_zero) return false;
    const RegWrite* the_update = nullptr;
    for (const RegWrite& w : writes[reg]) {
      if (w.instance != base_instance && write_shielded(w.instance, base_instance, reg)) {
        continue; // value provably survives the call
      }
      if (w.is_update && the_update == nullptr) {
        the_update = &w;
      } else {
        return false; // second unshielded write (update-shaped or not)
      }
    }
    if (the_update == nullptr) return false;
    update[reg] = {the_update->node, the_update->stride};
    // The update must run exactly once per circuit: it has to dominate
    // every back-edge source.
    for (const int eid : loop.back_edges) {
      if (!doms_.dominates(update[reg].node, sg_.edge(eid).from)) return false;
    }
    return true;
  };
  // The limit operand need not be loop-invariant: the value-analysis
  // interval at the branch point joins over all iterations, so using its
  // extremal bound in the trip-count formula stays sound even when the
  // register is rematerialized inside the loop (as compiled code does).
  // It only must not be the counter itself.
  const auto usable_limit = [&](std::uint8_t reg, std::uint8_t counter) {
    return reg != counter;
  };

  // Initial counter value: join over the loop entry edges (memoized
  // edge states of the shared transfer cache).
  const auto init_of = [&](std::uint8_t reg) {
    Interval init = Interval::bottom();
    for (const int eid : loop.entry_edges) {
      if (!values_.edge_feasible(eid)) continue;
      const AbsState& out = transfers_->edge_state(eid);
      if (!out.bottom) init = init.join(out.regs[reg]);
    }
    return init;
  };

  // ---- memory-homed ("slot") counters: compiled code often spills the
  // counter to the stack frame or a global. A slot qualifies when the
  // loop contains exactly one store to its (constant) address, that
  // store closes a load/addi/store triple on the same slot, and no other
  // store in the loop can alias the address.
  auto& slot_stores = scratch.slot_stores;
  auto& wild_stores = scratch.wild_stores;
  auto& slot_updates = scratch.slot_updates;
  for (const int node_id : loop.nodes) {
    for (const AccessInfo& access : values_.accesses(node_id)) {
      if (!access.is_store) continue;
      if (const auto addr = access.addr.as_constant(); addr && access.size == 4) {
        slot_stores.push_back({*addr, node_id, access.pc});
      } else if (!access.addr.is_bottom()) {
        wild_stores.push_back(access.addr);
      }
    }
  }
  // Only the size of each address's group matters, and the store of a
  // group of one, so the order within a group does not.
  std::sort(slot_stores.begin(), slot_stores.end(),
            [](const Scratch::SlotStore& a, const Scratch::SlotStore& b) {
              return a.addr < b.addr;
            });
  for (std::size_t first = 0, last = 0; first < slot_stores.size(); first = last) {
    const std::uint32_t addr = slot_stores[first].addr;
    for (last = first + 1; last < slot_stores.size() && slot_stores[last].addr == addr;) {
      ++last;
    }
    if (last - first != 1) continue;
    const bool aliased = std::any_of(wild_stores.begin(), wild_stores.end(),
                                     [&](const Interval& iv) { return iv.contains(addr); });
    if (aliased) continue;
    const int node_id = slot_stores[first].node;
    const std::uint32_t store_pc = slot_stores[first].pc;
    const cfg::SgNode& node = sg_.node(node_id);
    // Locate the store and walk back: addi rX, rX, c then lw rX from addr.
    const auto& insts = node.block->insts;
    const auto& accesses = values_.accesses(node_id);
    const int store_index = static_cast<int>((store_pc - node.block->begin) / 4);
    if (store_index < 0 || store_index >= static_cast<int>(insts.size())) continue;
    const Inst& store = insts[static_cast<std::size_t>(store_index)];
    if (!store.is_store() || store.access_size() != 4) continue;
    const std::uint8_t reg = store.rd; // stored value register
    std::int32_t stride = 0;
    bool ok = false;
    for (int i = store_index - 1; i >= 0; --i) {
      const Inst& inst = insts[static_cast<std::size_t>(i)];
      if (!inst.writes_rd() || inst.rd != reg) continue;
      if (stride == 0) {
        if (inst.op == Opcode::addi && inst.rs1 == reg && inst.imm != 0) {
          stride = static_cast<std::int32_t>(inst.imm);
          continue; // now find the defining load
        }
        break;
      }
      // Defining instruction below the addi: must be a load of the slot.
      if (inst.is_load() && inst.access_size() == 4) {
        const std::uint32_t load_pc = node.block->begin + static_cast<std::uint32_t>(i) * 4;
        const auto access = std::find_if(accesses.begin(), accesses.end(),
                                         [&](const AccessInfo& a) { return a.pc == load_pc; });
        if (access != accesses.end() && access->addr.as_constant() == addr) ok = true;
      }
      break;
    }
    if (!ok || stride == 0) continue;
    // Exactly once per circuit.
    bool dominates_backedges = true;
    for (const int eid : loop.back_edges) {
      if (!doms_.dominates(node_id, sg_.edge(eid).from)) dominates_backedges = false;
    }
    if (!dominates_backedges) continue;
    slot_updates.push_back({addr, node_id, store_pc, stride});
  }
  const auto slot_update = [&](std::uint32_t addr) -> const Scratch::SlotUpdate* {
    const auto it = std::lower_bound(
        slot_updates.begin(), slot_updates.end(), addr,
        [](const Scratch::SlotUpdate& u, std::uint32_t a) { return u.addr < a; });
    return it != slot_updates.end() && it->addr == addr ? &*it : nullptr;
  };

  // Initial slot value: join over the loop entry edges.
  const auto slot_init_of = [&](std::uint32_t addr) {
    Interval init = Interval::bottom();
    for (const int eid : loop.entry_edges) {
      if (!values_.edge_feasible(eid)) continue;
      init = init.join(transfers_->mem_word_along_edge(eid, addr));
    }
    return init;
  };
  // If the branch operand `reg` holds the value of a qualifying slot at
  // the terminator (defined by a load of that slot, unclobbered since),
  // return the slot address.
  const auto slot_behind_reg = [&](int node_id, std::uint8_t reg)
      -> std::optional<std::uint32_t> {
    const cfg::SgNode& node = sg_.node(node_id);
    const auto& insts = node.block->insts;
    const auto& accesses = values_.accesses(node_id);
    for (int i = static_cast<int>(insts.size()) - 2; i >= 0; --i) {
      const Inst& inst = insts[static_cast<std::size_t>(i)];
      if (!inst.writes_rd() || inst.rd != reg) continue;
      if (!inst.is_load() || inst.access_size() != 4) return std::nullopt;
      const std::uint32_t load_pc = node.block->begin + static_cast<std::uint32_t>(i) * 4;
      const auto access = std::find_if(accesses.begin(), accesses.end(),
                                       [&](const AccessInfo& a) { return a.pc == load_pc; });
      if (access == accesses.end()) return std::nullopt;
      const auto addr = access->addr.as_constant();
      if (!addr || slot_update(*addr) == nullptr) return std::nullopt;
      // No store to the slot between the load and the branch.
      for (const AccessInfo& a : accesses) {
        if (a.is_store && a.pc > load_pc && a.addr.contains(*addr)) return std::nullopt;
      }
      return addr;
    }
    return std::nullopt;
  };

  std::optional<std::uint64_t> best;
  std::ostringstream why;
  bool found_exit_branch = false;

  for (const int node_id : loop.nodes) {
    const cfg::SgNode& node = sg_.node(node_id);
    if (node.block->term != cfg::Term::branch) continue;
    // One successor edge must leave the loop, the other stay.
    int stay_edge = -1;
    int exit_edge = -1;
    for (const int eid : node.succ_edges) {
      const cfg::SgEdge& e = sg_.edge(eid);
      if (loops_.loop_contains(loop.id, e.to)) {
        stay_edge = eid;
      } else {
        exit_edge = eid;
      }
    }
    if (stay_edge < 0 || exit_edge < 0) continue;
    found_exit_branch = true;

    const Inst& term = node.block->terminator();
    const bool taken_stays = sg_.edge(stay_edge).kind == cfg::EdgeKind::taken;
    const Pred stay_raw = taken_stays ? term.branch_pred() : negate(term.branch_pred());

    // Normalize so the counter is on the left of the predicate.
    // (L p i) mirrors to: L <s i == i >=s L+1; L >=s i == i <s L+1.
    const auto mirror = [](Pred p, bool& add_one) {
      switch (p) {
      case Pred::eq: return Pred::eq;
      case Pred::ne: return Pred::ne;
      case Pred::lt_s: add_one = true; return Pred::ge_s;
      case Pred::ge_s: add_one = true; return Pred::lt_s;
      case Pred::lt_u: add_one = true; return Pred::ge_u;
      case Pred::ge_u: add_one = true; return Pred::lt_u;
      }
      return p;
    };

    std::uint8_t limit_reg = 0;
    Pred stay = stay_raw;
    bool add_one_to_limit = false; // for mirrored strict predicates
    std::int32_t stride = 0;
    int update_node = -1;
    Interval init = Interval::bottom();
    std::string counter_desc;
    const int branch_instance = node.instance;
    if (is_counter(term.rs1, branch_instance) && usable_limit(term.rs2, term.rs1)) {
      limit_reg = term.rs2;
      stride = update[term.rs1].stride;
      update_node = update[term.rs1].node;
      init = init_of(term.rs1);
      counter_desc = isa::reg_name(term.rs1);
    } else if (is_counter(term.rs2, branch_instance) && usable_limit(term.rs1, term.rs2)) {
      limit_reg = term.rs1;
      stride = update[term.rs2].stride;
      update_node = update[term.rs2].node;
      init = init_of(term.rs2);
      counter_desc = isa::reg_name(term.rs2);
      stay = mirror(stay_raw, add_one_to_limit);
    } else if (const auto slot = slot_behind_reg(node_id, term.rs1)) {
      limit_reg = term.rs2;
      stride = slot_update(*slot)->stride;
      update_node = slot_update(*slot)->node;
      init = slot_init_of(*slot);
      std::ostringstream desc;
      desc << "mem[0x" << std::hex << *slot << ']';
      counter_desc = desc.str();
    } else if (const auto slot = slot_behind_reg(node_id, term.rs2)) {
      limit_reg = term.rs1;
      stride = slot_update(*slot)->stride;
      update_node = slot_update(*slot)->node;
      init = slot_init_of(*slot);
      stay = mirror(stay_raw, add_one_to_limit);
      std::ostringstream desc;
      desc << "mem[0x" << std::hex << *slot << ']';
      counter_desc = desc.str();
    } else {
      continue; // branch not over a recognizable counter
    }

    // If the update dominates the exit branch, every compare sees the
    // already-incremented counter: shift the initial value by one stride
    // (makes the bound exact for do-style and for-step-at-latch loops).
    if (update_node == node_id || doms_.dominates(update_node, node_id)) {
      init = init.add(Interval::constant(static_cast<std::uint32_t>(stride)));
    }

    Interval limit = values_.reg_before(node.id, node.block->term_pc(), limit_reg);
    if (limit.is_bottom()) continue; // branch unreachable
    if (add_one_to_limit) {
      // Guard against wrap at the domain boundary.
      if ((stay == Pred::ge_s || stay == Pred::lt_s) && limit.smax() == INT32_MAX) continue;
      if ((stay == Pred::ge_u || stay == Pred::lt_u) &&
          limit.umax() == static_cast<std::int64_t>(UINT32_MAX)) {
        continue;
      }
      limit = limit.add(Interval::constant(1));
    }

    const auto trips = affine_trip_count(init, stride, stay, limit);
    if (!trips) continue;
    if (!best || *trips < *best) {
      best = trips;
      why.str("");
      why << "counter " << counter_desc << " += " << stride << ", stays while "
          << counter_desc << ' ' << to_string(stay) << ' ' << limit.to_string()
          << ", init " << init.to_string() << " -> bound " << *trips;
    }
  }

  if (best) {
    detail = why.str();
  } else if (!found_exit_branch) {
    detail = "no conditional exit branch found (endless or data-driven loop)";
  } else {
    detail = "exit condition is not an affine integer counter "
             "(input-data dependent loop): annotation required";
  }
  return best;
}

bool LoopBoundAnalysis::inputs_unchanged(const cfg::Loop& loop,
                                         const Previous& previous) const {
  // A clean node's code, in-state, accesses and every state inside it
  // are equal to the previous run's (see verify_warm_value), so are the
  // register values reg_before reads and the implicit image words a
  // slot counter's initial value reads (the slot is a store address of
  // a loop node).
  for (const int node_id : loop.nodes) {
    if (previous.node_clean[static_cast<std::size_t>(node_id)] == 0) return false;
  }
  for (const int eid : loop.entry_edges) {
    const bool feasible = values_.edge_feasible(eid);
    if (feasible != previous.values.edge_feasible(eid)) return false;
    const int from = sg_.edge(eid).from;
    // A clean source refines an equal out-state through an equal
    // branch, so its edge state is equal; any other entry edge's state
    // is compared directly. The previous state is refined afresh, so
    // the previous transfer cache's edge-state memo is not touched.
    if (!feasible || previous.node_clean[static_cast<std::size_t>(from)] != 0) continue;
    const AbsState before =
        previous.values.refine_along_edge(eid, previous.transfers.out_state(from));
    if (!(transfers_->edge_state(eid) == before)) return false;
  }
  return true;
}

std::vector<LoopBoundResult> LoopBoundAnalysis::run(const Previous* previous,
                                                    std::size_t* adopted) const {
  std::vector<LoopBoundResult> results;
  results.reserve(loops_.loops().size());
  Scratch scratch;
  std::size_t adoptions = 0;
  for (const cfg::Loop& loop : loops_.loops()) {
    if (previous != nullptr && inputs_unchanged(loop, *previous)) {
      results.push_back(previous->results[static_cast<std::size_t>(loop.id)]);
      ++adoptions;
      continue;
    }
    LoopBoundResult result;
    result.loop_id = loop.id;
    result.irreducible = loop.irreducible;
    result.bound = analyze_loop(loop, result.detail, scratch);
    results.push_back(std::move(result));
  }
  if (adopted != nullptr) *adopted = adoptions;
  return results;
}

} // namespace wcet::analysis
