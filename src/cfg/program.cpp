#include "cfg/program.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "isa/disasm.hpp"
#include "support/diag.hpp"

namespace wcet::cfg {

using isa::Inst;
using isa::Opcode;

const CfgBlock& CfgFunction::block_at(std::uint32_t addr) const {
  const auto it = blocks.find(addr);
  WCET_CHECK(it != blocks.end(), "no block at given address");
  return it->second;
}

namespace {

// Decoder-local view of the image for one reconstruct call. Word reads
// go through a cursor on the section the last read hit, so a fetch in
// the current section does not scan the section table as
// Image::read_word does. Function names and jump-table sizes come from
// a sorted index of the symbols that start at an address. Nothing is
// cached in the Image itself: the analysis reads an Image only through
// const references, so one Image may be decoded by several threads at
// once.
class ImageView {
public:
  explicit ImageView(const isa::Image& image) : image_(image) {
    std::vector<const isa::Symbol*> starting;
    for (const isa::Symbol& s : image.symbols()) {
      // Image::symbol_covering treats a size-0 symbol as 1 byte, and a
      // symbol whose end wraps past 2^32 covers nothing.
      const std::uint32_t size = std::max<std::uint32_t>(s.size, 1);
      if (size <= 0xFFFFFFFFu - s.addr) starting.push_back(&s);
    }
    std::stable_sort(starting.begin(), starting.end(),
                     [](const isa::Symbol* a, const isa::Symbol* b) { return a->addr < b->addr; });
    // symbol_covering's tie rule at one address: the last function
    // symbol wins, else the first symbol.
    for (std::size_t i = 0; i < starting.size();) {
      const isa::Symbol* best = starting[i];
      std::size_t j = i;
      for (; j < starting.size() && starting[j]->addr == best->addr; ++j) {
        if (starting[j]->kind == isa::Symbol::Kind::function) best = starting[j];
      }
      starts_.push_back(best);
      i = j;
    }
  }

  const isa::Image& image() const { return image_; }

  // Same result as Image::section_at: non-empty sections never overlap.
  const isa::Section* section_at(std::uint32_t addr) {
    if (last_ != nullptr && last_->contains(addr)) return last_;
    const isa::Section* s = image_.section_at(addr);
    if (s != nullptr) last_ = s;
    return s;
  }

  // Same result as Image::read_word.
  std::optional<std::uint32_t> read_word(std::uint32_t addr) {
    const isa::Section* s = section_at(addr);
    if (s == nullptr) return std::nullopt;
    return s->read_word(addr);
  }

  // Image::symbol_covering(addr) when the symbol it returns starts at
  // `addr`, nullptr when it returns none or one that starts earlier.
  const isa::Symbol* symbol_at(std::uint32_t addr) const {
    const auto it = std::lower_bound(
        starts_.begin(), starts_.end(), addr,
        [](const isa::Symbol* s, std::uint32_t a) { return s->addr < a; });
    return it != starts_.end() && (*it)->addr == addr ? *it : nullptr;
  }

private:
  const isa::Image& image_;
  const isa::Section* last_ = nullptr;
  std::vector<const isa::Symbol*> starts_; // one per start address, ascending
};

// Statically-known control flow — fall-through, conditional branches,
// direct jumps and calls — is part of the input, not of the analysis:
// a static successor outside the mapped image means the binary is
// truncated or mislinked, so it is rejected as an InputError naming
// the offending instruction. Indirect targets (annotation hints,
// value-analysis resolutions, jump-table matches) stay DecodeIssue
// obstructions instead: they may be over-approximations, and an
// over-approximate target set must never turn into a hard error.
void require_mapped(ImageView& view, std::uint32_t from_pc, std::uint32_t target,
                    const char* what) {
  if (view.read_word(target)) return;
  std::ostringstream os;
  os << what << " at " << view.image().describe(from_pc) << " leads to unmapped address 0x"
     << std::hex << target << " (truncated or mislinked image)";
  throw InputError(os.str());
}

// Decoded instruction fetch with diagnostics.
std::optional<Inst> fetch(ImageView& view, std::uint32_t pc, std::vector<DecodeIssue>& issues) {
  const auto word = view.read_word(pc);
  if (!word) {
    issues.push_back({pc, "control flow reaches unmapped address"});
    return std::nullopt;
  }
  const auto inst = isa::decode(*word);
  if (!inst) {
    issues.push_back({pc, "control flow reaches invalid opcode"});
    return std::nullopt;
  }
  return inst;
}

// Recognize the bounds-checked jump-table idiom ending in `jalr` (a
// non-return jalr); `window` holds the instructions of its linear run,
// in order. Walks the window backwards looking for
//     lui  rB, hi(table)     (or movi expansion)
//     ori  rB, rB, lo(table)
//     slli rI, rIdx, 2
//     add  rB, rB, rI
//     lw   rT, 0(rB)
//     jalr r?, rT, 0
// and reads the table from a read-only section. The element count comes
// from the table's object symbol size — tables must be emitted with a
// .global symbol (mcc's switch lowering does this).
std::vector<std::uint32_t> match_jump_table(ImageView& view, const std::vector<Inst>& window,
                                            const Inst& jalr) {
  if (jalr.imm != 0) return {};
  // Find the defining load of the jalr operand.
  int load_at = -1;
  for (int i = static_cast<int>(window.size()) - 1; i >= 0; --i) {
    const Inst& inst = window[static_cast<std::size_t>(i)];
    if (inst.writes_rd() && inst.rd == jalr.rs1) {
      if (inst.op == Opcode::lw && inst.imm == 0) load_at = i;
      break;
    }
  }
  if (load_at < 0) return {};
  const Inst load = window[static_cast<std::size_t>(load_at)];
  // Find `add base, base, index` defining the load address.
  int add_at = -1;
  for (int i = load_at - 1; i >= 0; --i) {
    const Inst& inst = window[static_cast<std::size_t>(i)];
    if (inst.writes_rd() && inst.rd == load.rs1) {
      if (inst.op == Opcode::add) add_at = i;
      break;
    }
  }
  if (add_at < 0) return {};
  const Inst add = window[static_cast<std::size_t>(add_at)];
  // One operand must resolve to a constant via lui/ori, the other may be
  // anything (the scaled index).
  const auto resolve_constant = [&](std::uint8_t reg, int before) -> std::optional<std::uint32_t> {
    std::optional<std::uint32_t> upper;
    for (int i = before - 1; i >= 0; --i) {
      const Inst& inst = window[static_cast<std::size_t>(i)];
      if (!inst.writes_rd() || inst.rd != reg) continue;
      if (inst.op == Opcode::ori && inst.rs1 == reg) {
        // Keep scanning for the lui that feeds it.
        for (int j = i - 1; j >= 0; --j) {
          const Inst& def = window[static_cast<std::size_t>(j)];
          if (!def.writes_rd() || def.rd != reg) continue;
          if (def.op == Opcode::lui) {
            upper = (static_cast<std::uint32_t>(def.imm) << 16) |
                    static_cast<std::uint32_t>(inst.imm);
          }
          break;
        }
      } else if (inst.op == Opcode::ori && inst.rs1 == isa::reg_zero) {
        upper = static_cast<std::uint32_t>(inst.imm);
      }
      break;
    }
    return upper;
  };
  std::optional<std::uint32_t> table = resolve_constant(add.rs1, add_at);
  if (!table) table = resolve_constant(add.rs2, add_at);
  if (!table) return {};
  // Element count from the object symbol at the table address.
  const isa::Symbol* sym = view.symbol_at(*table);
  if (sym == nullptr || sym->size < 4) return {};
  const isa::Section* sec = view.section_at(*table);
  if (sec == nullptr || sec->writable) return {}; // table must be immutable
  std::vector<std::uint32_t> targets;
  for (std::uint32_t off = 0; off + 4 <= sym->size; off += 4) {
    const auto entry = view.read_word(*table + off);
    if (!entry) return {};
    targets.push_back(*entry);
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  return targets;
}

// Decode marks of one word. A visited, decoded or leader mark counts
// only while it carries the generation of the function being decoded,
// so moving on to the next function clears nothing. `function` is set
// once per reconstruct call, when a function entry is first queued.
struct WordSlot {
  std::uint32_t visited = 0;
  std::uint32_t decoded = 0;
  std::uint32_t leader = 0;
  bool function = false;
  Inst inst; // valid while `decoded` is current
};

// The slots of one reconstruct call, one per word of every executable
// section, indexed by pc. They are allocated a page at a time on first
// touch, so a large section with little reachable code costs little.
// A pc off its section's 4-byte grid or outside the executable
// sections (hints and jump-table entries can produce both) takes an
// ordered side table.
class WordSlots {
public:
  explicit WordSlots(const isa::Image& image) {
    std::size_t words = 0;
    for (const isa::Section& s : image.sections()) {
      if (!s.executable || s.bytes.empty()) continue;
      ranges_.push_back({s.vaddr, s.end(), words});
      words += (s.bytes.size() + 3) / 4;
    }
    pages_.resize((words + page_words - 1) / page_words);
  }

  WordSlot& at(std::uint32_t pc) {
    const std::size_t i = index(pc);
    if (i == npos) return other_[pc];
    auto& page = pages_[i / page_words];
    if (!page) page = std::make_unique<WordSlot[]>(page_words);
    return page[i % page_words];
  }

  const WordSlot* find(std::uint32_t pc) const {
    if (const std::size_t i = index(pc); i != npos) {
      const auto& page = pages_[i / page_words];
      return page ? &page[i % page_words] : nullptr;
    }
    const auto it = other_.find(pc);
    return it != other_.end() ? &it->second : nullptr;
  }

private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::size_t page_words = 1024;
  struct Range {
    std::uint32_t begin;
    std::uint32_t end;
    std::size_t base;
  };

  std::size_t index(std::uint32_t pc) const {
    for (const Range& r : ranges_) {
      if (pc < r.begin || pc >= r.end) continue;
      const std::uint32_t off = pc - r.begin;
      return off % 4 == 0 ? r.base + off / 4 : npos;
    }
    return npos;
  }

  std::vector<Range> ranges_;
  std::vector<std::unique_ptr<WordSlot[]>> pages_;
  std::map<std::uint32_t, WordSlot> other_;
};

struct Decoder {
  ImageView view;
  WordSlots slots;
  const ResolutionHints& hints;
  std::vector<DecodeIssue>& issues;
  // Every function entry queued so far, in discovery order; the ones
  // from `next_function` on are still to be decoded.
  std::vector<std::uint32_t> functions;
  std::size_t next_function = 0;
  // Per-function scratch, reused across functions.
  std::uint32_t generation = 0;
  std::vector<std::uint32_t> work;    // run starts, FIFO via `work_head`
  std::vector<std::uint32_t> decoded; // pcs decoded, sorted before slicing
  std::vector<Inst> window;           // the current run (pass A) or block (pass B)
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> resolved_indirect;

  Decoder(const isa::Image& image, const ResolutionHints& hints_in,
          std::vector<DecodeIssue>& issues_out)
      : view(image), slots(image), hints(hints_in), issues(issues_out) {}

  void enqueue_function(std::uint32_t entry) {
    WordSlot& slot = slots.at(entry);
    if (slot.function) return;
    slot.function = true;
    functions.push_back(entry);
  }

  void add_leader(std::uint32_t pc) { slots.at(pc).leader = generation; }

  void add_run(std::uint32_t pc) {
    add_leader(pc);
    work.push_back(pc);
  }

  bool is_leader(std::uint32_t pc) const {
    const WordSlot* slot = slots.find(pc);
    return slot != nullptr && slot->leader == generation;
  }

  bool is_decoded(std::uint32_t pc) const {
    const WordSlot* slot = slots.find(pc);
    return slot != nullptr && slot->decoded == generation;
  }

  std::vector<std::uint32_t> take_resolved(std::uint32_t pc) {
    const auto it = std::lower_bound(
        resolved_indirect.begin(), resolved_indirect.end(), pc,
        [](const auto& entry, std::uint32_t p) { return entry.first < p; });
    WCET_CHECK(it != resolved_indirect.end() && it->first == pc,
               "indirect transfer without a resolution record");
    return std::move(it->second);
  }

  CfgFunction decode_function(std::uint32_t entry) {
    CfgFunction fn;
    fn.entry = entry;
    if (const isa::Symbol* sym = view.symbol_at(entry)) {
      fn.name = sym->name;
    } else {
      std::ostringstream os;
      os << "fn_0x" << std::hex << entry;
      fn.name = os.str();
    }

    // Pass A: explore reachable instructions, collect leaders and edges.
    ++generation;
    work.clear();
    decoded.clear();
    resolved_indirect.clear();
    add_run(entry);

    for (std::size_t work_head = 0; work_head < work.size(); ++work_head) {
      std::uint32_t pc = work[work_head];
      window.clear();
      bool fell_into_visited = false;
      for (;;) {
        WordSlot& slot = slots.at(pc);
        if (slot.visited == generation) {
          fell_into_visited = true;
          break;
        }
        slot.visited = generation;
        const auto inst_opt = fetch(view, pc, issues);
        if (!inst_opt) {
          fn.has_unresolved_indirect = true;
          break;
        }
        const Inst inst = *inst_opt;
        slot.decoded = generation;
        slot.inst = inst;
        decoded.push_back(pc);
        window.push_back(inst);

        if (inst.is_conditional_branch()) {
          const std::uint32_t target = inst.target(pc);
          require_mapped(view, pc, target, "conditional branch");
          require_mapped(view, pc, pc + 4, "fall-through of conditional branch");
          add_run(target);
          add_run(pc + 4);
          break;
        }
        if (inst.op == Opcode::jal) {
          const std::uint32_t target = inst.target(pc);
          if (inst.is_call()) {
            require_mapped(view, pc, target, "direct call");
            require_mapped(view, pc, pc + 4, "return path of direct call");
            enqueue_function(target);
            add_run(pc + 4);
          } else {
            require_mapped(view, pc, target, "direct jump");
            add_run(target);
          }
          break;
        }
        if (inst.op == Opcode::jalr) {
          if (inst.is_return()) break;
          // Hints take precedence; then the table matcher.
          std::vector<std::uint32_t> targets;
          if (const auto hint = hints.indirect_targets.find(pc);
              hint != hints.indirect_targets.end()) {
            targets = hint->second;
          } else {
            targets = match_jump_table(view, window, inst);
          }
          if (inst.is_call()) {
            if (targets.empty()) {
              issues.push_back({pc, "unresolved indirect call (function pointer)"});
              fn.has_unresolved_indirect = true;
            }
            for (const std::uint32_t callee : targets) enqueue_function(callee);
            add_run(pc + 4);
          } else {
            if (targets.empty()) {
              issues.push_back({pc, "unresolved indirect jump"});
              fn.has_unresolved_indirect = true;
            }
            for (const std::uint32_t t : targets) add_run(t);
          }
          resolved_indirect.emplace_back(pc, std::move(targets));
          break;
        }
        if (inst.op == Opcode::halt) break;
        if (inst.op == Opcode::ecall) {
          require_mapped(view, pc, pc + 4, "fall-through of ecall");
          add_run(pc + 4);
          break;
        }
        require_mapped(view, pc, pc + 4, "straight-line code");
        pc += 4;
      }
      // A run that fell into already-decoded code splits the block there.
      if (fell_into_visited && is_decoded(pc)) add_leader(pc);
    }

    // Pass B: slice the decoded pcs, in address order, into basic blocks.
    std::sort(decoded.begin(), decoded.end());
    std::sort(resolved_indirect.begin(), resolved_indirect.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < decoded.size();) {
      const std::uint32_t begin = decoded[i];
      CfgBlock block;
      block.begin = begin;
      window.clear(); // the block's instructions, copied out at its end
      std::uint32_t pc = begin;
      while (i < decoded.size() && decoded[i] == pc) {
        const Inst inst = slots.find(pc)->inst;
        window.push_back(inst);
        ++i;
        const std::uint32_t next = pc + 4;
        if (inst.ends_basic_block()) {
          // Terminator kinds and successors.
          if (inst.is_conditional_branch()) {
            block.term = Term::branch;
            block.succs = {next, inst.target(pc)};
          } else if (inst.op == Opcode::jal) {
            if (inst.is_call()) {
              block.term = Term::call;
              block.callees = {inst.target(pc)};
              block.succs = {next};
            } else {
              block.term = Term::jump;
              block.succs = {inst.target(pc)};
            }
          } else if (inst.op == Opcode::jalr) {
            if (inst.is_return()) {
              block.term = Term::ret;
            } else if (inst.is_call()) {
              block.term = Term::indirect_call;
              block.callees = take_resolved(pc);
              block.indirect_unresolved = block.callees.empty();
              block.succs = {next};
            } else {
              block.term = Term::indirect_jump;
              block.succs = take_resolved(pc);
              block.indirect_unresolved = block.succs.empty();
            }
          } else if (inst.op == Opcode::ecall) {
            block.term = Term::ecall;
            if (is_decoded(next)) block.succs = {next};
          } else {
            WCET_CHECK(inst.op == Opcode::halt, "unexpected terminator");
            block.term = Term::halt;
          }
          pc = next;
          break;
        }
        if (is_leader(next) || i == decoded.size() || decoded[i] != next) {
          block.term = Term::fallthrough;
          if (is_decoded(next)) block.succs = {next};
          pc = next;
          break;
        }
        pc = next;
      }
      block.end = pc;
      block.insts.assign(window.begin(), window.end());
      fn.blocks.emplace_hint(fn.blocks.end(), begin, std::move(block));
    }
    return fn;
  }
};

} // namespace

Program Program::reconstruct(const isa::Image& image, std::uint32_t entry,
                             const ResolutionHints& hints) {
  Program program;
  program.image_ = &image;
  program.entry_ = entry;
  Decoder decoder(image, hints, program.issues_);
  decoder.enqueue_function(entry);
  while (decoder.next_function < decoder.functions.size()) {
    const std::uint32_t fn_entry = decoder.functions[decoder.next_function++];
    program.functions_.emplace(fn_entry, decoder.decode_function(fn_entry));
  }
  return program;
}

const CfgFunction& Program::function_at(std::uint32_t entry_addr) const {
  const auto it = functions_.find(entry_addr);
  WCET_CHECK(it != functions_.end(), "no function at given entry");
  return it->second;
}

bool Program::fully_resolved() const {
  for (const auto& [entry, fn] : functions_) {
    if (fn.has_unresolved_indirect) return false;
  }
  return true;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> Program::call_edges() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const auto& [entry, fn] : functions_) {
    for (const auto& [addr, block] : fn.blocks) {
      for (const std::uint32_t callee : block.callees) {
        edges.emplace_back(entry, callee);
      }
    }
  }
  return edges;
}

std::set<std::uint32_t> Program::recursive_functions() const {
  // Tarjan SCC over the call graph; members of non-trivial SCCs (or with
  // self edges) are recursive.
  std::map<std::uint32_t, std::vector<std::uint32_t>> adjacency;
  for (const auto& [from, to] : call_edges()) adjacency[from].push_back(to);

  std::set<std::uint32_t> result;
  std::map<std::uint32_t, int> index, low;
  std::vector<std::uint32_t> stack;
  std::set<std::uint32_t> on_stack;
  int counter = 0;

  struct Frame {
    std::uint32_t node;
    std::size_t next_child = 0;
  };
  for (const auto& [fn_entry, fn] : functions_) {
    if (index.count(fn_entry) != 0) continue;
    std::vector<Frame> frames{{fn_entry}};
    index[fn_entry] = low[fn_entry] = counter++;
    stack.push_back(fn_entry);
    on_stack.insert(fn_entry);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto& children = adjacency[frame.node];
      if (frame.next_child < children.size()) {
        const std::uint32_t child = children[frame.next_child++];
        if (index.count(child) == 0) {
          index[child] = low[child] = counter++;
          stack.push_back(child);
          on_stack.insert(child);
          frames.push_back({child});
        } else if (on_stack.count(child) != 0) {
          low[frame.node] = std::min(low[frame.node], index[child]);
        }
      } else {
        if (low[frame.node] == index[frame.node]) {
          std::vector<std::uint32_t> scc;
          for (;;) {
            const std::uint32_t member = stack.back();
            stack.pop_back();
            on_stack.erase(member);
            scc.push_back(member);
            if (member == frame.node) break;
          }
          const bool self_loop = [&] {
            const auto& adj = adjacency[frame.node];
            return std::find(adj.begin(), adj.end(), frame.node) != adj.end();
          }();
          if (scc.size() > 1 || self_loop) {
            result.insert(scc.begin(), scc.end());
          }
        }
        const std::uint32_t done = frame.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] = std::min(low[frames.back().node], low[done]);
        }
      }
    }
  }
  return result;
}

std::string Program::dump() const {
  std::ostringstream os;
  for (const auto& [entry, fn] : functions_) {
    os << "function " << fn.name << " @0x" << std::hex << entry << std::dec << '\n';
    for (const auto& [addr, block] : fn.blocks) {
      os << "  block [0x" << std::hex << block.begin << ", 0x" << block.end << ")";
      os << " succs:";
      for (const auto s : block.succs) os << " 0x" << s;
      if (!block.callees.empty()) {
        os << " calls:";
        for (const auto c : block.callees) os << " 0x" << c;
      }
      os << std::dec << '\n';
      std::uint32_t pc = block.begin;
      for (const auto& inst : block.insts) {
        os << "    " << isa::disassemble(inst, pc, image_) << '\n';
        pc += 4;
      }
    }
  }
  return os.str();
}

} // namespace wcet::cfg
