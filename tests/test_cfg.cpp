// Decoding phase and graph structure: CFG reconstruction, jump-table
// resolution, call graph, supergraph expansion (contexts, recursion
// cuts), dominators, loop forest and irreducibility.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/domloop.hpp"
#include "cfg/program.hpp"
#include "cfg/supergraph.hpp"
#include "isa/assembler.hpp"
#include "support/diag.hpp"
#include "tests/differential_shapes.hpp"

namespace wcet::cfg {
namespace {

using isa::assemble;

TEST(Decode, StraightLineAndBranch) {
  const isa::Image image = assemble(R"(
        .global main
main:   movi t0, 1
        beq  a0, zero, out
        addi t0, t0, 1
out:    ret
)");
  const Program program = Program::reconstruct(image, image.entry());
  ASSERT_EQ(program.functions().size(), 1u);
  const CfgFunction& fn = program.functions().begin()->second;
  EXPECT_EQ(fn.name, "main");
  EXPECT_EQ(fn.blocks.size(), 3u);
  const CfgBlock& head = fn.blocks.begin()->second;
  EXPECT_EQ(head.term, Term::branch);
  ASSERT_EQ(head.succs.size(), 2u);
  EXPECT_TRUE(program.fully_resolved());
}

TEST(Decode, CallsCreateFunctionsAndCallGraph) {
  const isa::Image image = assemble(R"(
        .global main
        .global helper
main:   call helper
        halt
helper: addi a0, a0, 1
        ret
)");
  const Program program = Program::reconstruct(image, image.entry());
  EXPECT_EQ(program.functions().size(), 2u);
  const auto edges = program.call_edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(program.function_at(edges[0].second).name, "helper");
  EXPECT_TRUE(program.recursive_functions().empty());
}

TEST(Decode, RecursionDetected) {
  const isa::Image image = assemble(R"(
        .global main
        .global even
        .global odd
main:   call even
        halt
even:   beq a0, zero, even_done
        addi a0, a0, -1
        call odd
even_done: ret
odd:    beq a0, zero, odd_done
        addi a0, a0, -1
        call even
odd_done: ret
)");
  const Program program = Program::reconstruct(image, image.entry());
  const auto recursive = program.recursive_functions();
  EXPECT_EQ(recursive.size(), 2u); // even and odd, mutually recursive
  EXPECT_EQ(recursive.count(image.find_symbol("main")->addr), 0u);
}

TEST(Decode, JumpTableResolved) {
  // The compiler-convention dense-switch idiom must resolve without
  // annotations (bounds check + .global'd read-only table).
  const isa::Image image = assemble(R"(
        .global main
main:   sltiu t1, a0, 3
        beq  t1, zero, default
        slli t1, a0, 2
        movi t2, jumptab
        add  t2, t2, t1
        lw   t2, 0(t2)
        jr   t2
case0:  movi a0, 10
        ret
case1:  movi a0, 20
        ret
case2:  movi a0, 30
        ret
default: movi a0, 99
        ret
        .rodata
        .align 4
        .global jumptab
jumptab: .word case0, case1, case2
)");
  const Program program = Program::reconstruct(image, image.entry());
  EXPECT_TRUE(program.fully_resolved()) << program.dump();
  const CfgFunction& fn = program.functions().begin()->second;
  // Find the dispatch block and check all three targets.
  bool found = false;
  for (const auto& [addr, block] : fn.blocks) {
    if (block.term == Term::indirect_jump) {
      found = true;
      EXPECT_EQ(block.succs.size(), 3u);
      EXPECT_FALSE(block.indirect_unresolved);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Decode, UnresolvedIndirectReported) {
  const isa::Image image = assemble(R"(
        .global main
main:   jr   a0
)");
  const Program program = Program::reconstruct(image, image.entry());
  EXPECT_FALSE(program.fully_resolved());
  ASSERT_FALSE(program.issues().empty());
  EXPECT_NE(program.issues()[0].message.find("indirect"), std::string::npos);
}

TEST(Decode, HintsResolveIndirectCalls) {
  const isa::Image image = assemble(R"(
        .global main
        .global f
        .global g
main:   callr t0
        halt
f:      ret
g:      ret
)");
  ResolutionHints hints;
  hints.indirect_targets[0x1000] = {image.find_symbol("f")->addr,
                                    image.find_symbol("g")->addr};
  const Program program = Program::reconstruct(image, image.entry(), hints);
  EXPECT_TRUE(program.fully_resolved());
  EXPECT_EQ(program.functions().size(), 3u);
}

// ------------------------------------------------------------ supergraph

TEST(Supergraph, ContextCloning) {
  // One callee called from two sites: two instances, separate nodes.
  const isa::Image image = assemble(R"(
        .global main
        .global leaf
main:   call leaf
        call leaf
        halt
leaf:   ret
)");
  const Program program = Program::reconstruct(image, image.entry());
  const Supergraph sg = Supergraph::expand(program);
  EXPECT_EQ(sg.instances().size(), 3u); // main + 2x leaf
  int leaf_nodes = 0;
  for (const SgNode& node : sg.nodes()) {
    if (program.function_at(node.fn_entry).name == "leaf") ++leaf_nodes;
  }
  EXPECT_EQ(leaf_nodes, 2);
  EXPECT_NE(sg.context_of(sg.nodes().back().id).find("main"), std::string::npos);
}

TEST(Supergraph, RecursionWithoutAnnotationIsAnIssue) {
  const isa::Image image = assemble(R"(
        .global main
        .global f
main:   call f
        halt
f:      beq a0, zero, done
        addi a0, a0, -1
        call f
done:   ret
)");
  const Program program = Program::reconstruct(image, image.entry());
  const Supergraph sg = Supergraph::expand(program);
  ASSERT_FALSE(sg.issues().empty());
  EXPECT_NE(sg.issues()[0].message.find("recursion"), std::string::npos);
}

TEST(Supergraph, RecursionUnrolledWithDepth) {
  const isa::Image image = assemble(R"(
        .global main
        .global f
main:   call f
        halt
f:      beq a0, zero, done
        addi a0, a0, -1
        call f
done:   ret
)");
  const Program program = Program::reconstruct(image, image.entry());
  Supergraph::Options options;
  options.recursion_depths[image.find_symbol("f")->addr] = 4;
  const Supergraph sg = Supergraph::expand(program, options);
  EXPECT_TRUE(sg.issues().empty());
  // main + 4 unrolled instances of f.
  EXPECT_EQ(sg.instances().size(), 5u);
  // The deepest call is cut: exactly one cut edge.
  int cuts = 0;
  for (const SgEdge& edge : sg.edges()) {
    if (edge.kind == EdgeKind::cut) ++cuts;
  }
  EXPECT_EQ(cuts, 1);
}

TEST(Supergraph, UndecodedCalleeEntryIsAnAnalysisError) {
  // A hinted callee whose entry could not be fetched has no blocks: the
  // expansion refuses it as a classified analysis error.
  const isa::Image image = assemble(R"(
        .global main
main:   callr t0
        halt
)");
  ResolutionHints hints;
  hints.indirect_targets[0x1000] = {0x9000};
  const Program program = Program::reconstruct(image, image.entry(), hints);
  EXPECT_THROW(Supergraph::expand(program), AnalysisError);
}

// ------------------------------------------------------- dominators/loops

TEST(Dominators, DiamondAndLoop) {
  const isa::Image image = assemble(R"(
        .global main
main:   beq a0, zero, left
        addi t0, t0, 1
        j    merge
left:   addi t0, t0, 2
merge:  addi t1, zero, 0
loop:   addi t1, t1, 1
        blt  t1, a1, loop
        halt
)");
  const Program program = Program::reconstruct(image, image.entry());
  const Supergraph sg = Supergraph::expand(program);
  const Dominators doms(sg);
  // Entry dominates everything reachable.
  for (const SgNode& node : sg.nodes()) {
    if (doms.reachable(node.id)) {
      EXPECT_TRUE(doms.dominates(sg.entry_node(), node.id));
    }
  }
  // The merge block is not dominated by either diamond arm.
  const LoopForest forest(sg);
  ASSERT_EQ(forest.loops().size(), 1u);
  EXPECT_FALSE(forest.loops()[0].irreducible);
}

TEST(Loops, NestingAndMembership) {
  const isa::Image image = assemble(R"(
        .global main
main:   movi t0, 0
outer:  movi t1, 0
inner:  addi t1, t1, 1
        blt  t1, a0, inner
        addi t0, t0, 1
        blt  t0, a1, outer
        halt
)");
  const Program program = Program::reconstruct(image, image.entry());
  const Supergraph sg = Supergraph::expand(program);
  const LoopForest forest(sg);
  ASSERT_EQ(forest.loops().size(), 2u);
  const Loop& outer = forest.loops()[0];
  const Loop& inner = forest.loops()[1];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_GT(outer.nodes.size(), inner.nodes.size());
  for (const int node : inner.nodes) {
    EXPECT_TRUE(forest.loop_contains(outer.id, node));
  }
  EXPECT_FALSE(forest.has_irreducible_loops());
}

TEST(Loops, IrreducibleFromGoto) {
  // Two entries into the cycle: through `head` and directly to `mid`.
  const isa::Image image = assemble(R"(
        .global main
main:   beq a0, zero, mid
head:   addi t0, t0, 1
mid:    addi t1, t1, 1
        blt  t1, a1, head
        halt
)");
  const Program program = Program::reconstruct(image, image.entry());
  const Supergraph sg = Supergraph::expand(program);
  const LoopForest forest(sg);
  ASSERT_EQ(forest.loops().size(), 1u);
  EXPECT_TRUE(forest.loops()[0].irreducible);
  EXPECT_EQ(forest.loops()[0].entries.size(), 2u);
  EXPECT_TRUE(forest.has_irreducible_loops());
}

TEST(Loops, SelfLoopDetected) {
  const isa::Image image = assemble(R"(
        .global main
main:   movi t0, 0
spin:   addi t0, t0, 1
        blt  t0, a0, spin
        halt
)");
  const Program program = Program::reconstruct(image, image.entry());
  const Supergraph sg = Supergraph::expand(program);
  const LoopForest forest(sg);
  ASSERT_EQ(forest.loops().size(), 1u);
  EXPECT_EQ(forest.loops()[0].back_edges.size(), 1u);
  EXPECT_EQ(forest.loops()[0].entry_edges.size(), 1u);
}

// ---------------------------------------------------------- decoder pins
//
// Exact outputs of the decode layer on the inputs where its bookkeeping
// is easiest to get wrong: pcs off the 4-byte grid or outside the text
// section, a branch into an already decoded run, a callee shared by two
// callers. The expected texts and fingerprints were taken from the
// map-based decoder; the flat decoder must reproduce them byte for byte.

// Everything the decode layer produces, as one canonical text: the CFGs
// (Program::dump), the decode issues in order, the supergraph's instances
// and (from, to, kind) edges with their issues, and each loop's header,
// nodes and back edges.
std::string decode_layer_text(const Program& program, const Supergraph::Options& options = {}) {
  std::ostringstream os;
  os << program.dump();
  for (const DecodeIssue& issue : program.issues()) {
    os << "issue 0x" << std::hex << issue.pc << std::dec << ' ' << issue.message << '\n';
  }
  const Supergraph sg = Supergraph::expand(program, options);
  for (const Instance& inst : sg.instances()) {
    os << "instance " << inst.id << " fn 0x" << std::hex << inst.fn_entry << std::dec
       << " caller " << inst.caller_instance << " site " << inst.call_site_node << " entry "
       << sg.instance_entry_node(inst.id) << " nodes";
    for (const int n : sg.instance_nodes(inst.id)) os << ' ' << n;
    os << '\n';
  }
  for (const SgNode& node : sg.nodes()) {
    os << "node " << node.id << " @0x" << std::hex << node.block->begin << std::dec << '\n';
  }
  for (const SgEdge& edge : sg.edges()) {
    os << "edge " << edge.from << ' ' << edge.to << ' ' << static_cast<int>(edge.kind) << '\n';
  }
  for (const SupergraphIssue& issue : sg.issues()) {
    os << "sg-issue 0x" << std::hex << issue.pc << std::dec << ' ' << issue.message << '\n';
  }
  os << "entry " << sg.entry_node() << " exits";
  for (const int n : sg.exit_nodes()) os << ' ' << n;
  os << '\n';
  const LoopForest forest(sg);
  for (const Loop& loop : forest.loops()) {
    os << "loop " << loop.id << " header " << loop.header << " parent " << loop.parent
       << " nodes";
    for (const int n : loop.nodes) os << ' ' << n;
    os << " back";
    for (const int e : loop.back_edges) os << ' ' << e;
    os << " children";
    for (const int c : loop.children) os << ' ' << c;
    os << '\n';
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void put_word(std::vector<std::uint8_t>& bytes, std::uint32_t word) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(word >> shift));
  }
}

isa::Section text_section(std::uint32_t vaddr, std::vector<std::uint8_t> bytes) {
  isa::Section section;
  section.name = ".text";
  section.vaddr = vaddr;
  section.bytes = std::move(bytes);
  section.executable = true;
  return section;
}

// An `addi` whose immediate's high byte is the halt opcode: the word
// that starts two bytes before its end decodes as `halt`.
std::int64_t halt_in_high_imm_byte() { return static_cast<std::int64_t>(isa::Opcode::halt) << 8; }

TEST(DecodePins, UnalignedHintTargetsInterleaveWithAlignedCode) {
  // 0x1000 jr t0 (hinted to 0x1008 and 0x100a); 0x1008 and 0x100c are
  // addi; the word at 0x100a straddles them and decodes as halt.
  std::vector<std::uint8_t> bytes;
  put_word(bytes, isa::encode({isa::Opcode::jalr, isa::reg_zero, isa::reg_t0, 0, 0}));
  put_word(bytes, isa::encode({isa::Opcode::halt, 0, 0, 0, 0}));
  put_word(bytes, isa::encode({isa::Opcode::addi, isa::reg_t0, isa::reg_t0, 0, 0}));
  put_word(bytes, isa::encode({isa::Opcode::addi, isa::reg_t1, isa::reg_t1, 0,
                               halt_in_high_imm_byte()}));
  put_word(bytes, isa::encode({isa::Opcode::halt, 0, 0, 0, 0}));
  isa::Image image;
  image.add_section(text_section(0x1000, std::move(bytes)));
  image.set_entry(0x1000);
  ResolutionHints hints;
  hints.indirect_targets[0x1000] = {0x1008, 0x100a};
  const Program program = Program::reconstruct(image, image.entry(), hints);
  EXPECT_TRUE(program.fully_resolved());
  // The unaligned run [0x100a, 0x100e) sits between 0x1008 and 0x100c,
  // so the aligned run starting at 0x1008 is cut there.
  EXPECT_EQ(decode_layer_text(program), R"(function fn_0x1000 @0x1000
  block [0x1000, 0x1004) succs: 0x1008 0x100a
    jalr zero, t0, 0
  block [0x1008, 0x100c) succs: 0x100c
    addi t0, t0, 0
  block [0x100a, 0x100e) succs:
    halt
  block [0x100c, 0x1014) succs:
    addi t1, t1, 11520
    halt
instance 0 fn 0x1000 caller -1 site -1 entry 0 nodes 0 1 2 3
node 0 @0x1000
node 1 @0x1008
node 2 @0x100a
node 3 @0x100c
edge 0 1 1
edge 0 2 1
edge 1 3 0
entry 0 exits 2 3
)");
}

TEST(DecodePins, UnalignedJumpTableEntry) {
  std::ostringstream src;
  src << R"(
        .global main
main:   sltiu t1, a0, 3
        beq  t1, zero, default
        slli t1, a0, 2
        movi t2, jumptab
        add  t2, t2, t1
        lw   t2, 0(t2)
        jr   t2
case0:  movi a0, 10
        ret
case1:  addi t0, t0, 0
        addi t1, t1, )"
      << halt_in_high_imm_byte() << R"(
        ret
default: movi a0, 99
        ret
        .rodata
        .align 4
        .global jumptab
jumptab: .word case0, case1+2, default
)";
  const isa::Image image = assemble(src.str());
  const Program program = Program::reconstruct(image, image.entry());
  EXPECT_TRUE(program.fully_resolved());
  const std::uint32_t case1 = image.find_symbol("case1")->addr;
  bool found = false;
  for (const auto& [addr, block] : program.functions().begin()->second.blocks) {
    if (block.term != Term::indirect_jump) continue;
    found = true;
    EXPECT_EQ(block.succs, (std::vector<std::uint32_t>{image.find_symbol("case0")->addr,
                                                       case1 + 2,
                                                       image.find_symbol("default")->addr}));
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(decode_layer_text(program), R"(function main @0x1000
  block [0x1000, 0x1008) succs: 0x1008 0x1034
    sltiu t1, a0, 3
    beq t1, zero, default
  block [0x1008, 0x1020) succs: 0x1020 0x102a 0x1034
    slli t1, a0, 2
    lui t2, 0x0
    ori t2, t2, 32768
    add t2, t2, t1
    lw t2, 0(t2)
    jalr zero, t2, 0
  block [0x1020, 0x1028) succs:
    ori a0, zero, 10
    jalr zero, ra, 0
  block [0x102a, 0x102e) succs:
    halt
  block [0x1034, 0x103c) succs:
    ori a0, zero, 99
    jalr zero, ra, 0
instance 0 fn 0x1000 caller -1 site -1 entry 0 nodes 0 1 2 3 4
node 0 @0x1000
node 1 @0x1008
node 2 @0x1020
node 3 @0x102a
node 4 @0x1034
edge 0 1 0
edge 0 4 1
edge 1 2 1
edge 1 3 1
edge 1 4 1
entry 0 exits 2 3 4
)");
}

TEST(DecodePins, HintToUnmappedAddressIsAnIssue) {
  const isa::Image image = assemble(R"(
        .global main
main:   jr   t0
        halt
)");
  ResolutionHints hints;
  hints.indirect_targets[0x1000] = {0x1004, 0x9000};
  const Program program = Program::reconstruct(image, image.entry(), hints);
  EXPECT_FALSE(program.fully_resolved());
  ASSERT_EQ(program.issues().size(), 1u);
  EXPECT_EQ(program.issues()[0].pc, 0x9000u);
  EXPECT_EQ(decode_layer_text(program), R"(function main @0x1000
  block [0x1000, 0x1004) succs: 0x1004 0x9000
    jalr zero, t0, 0
  block [0x1004, 0x1008) succs:
    halt
issue 0x9000 control flow reaches unmapped address
instance 0 fn 0x1000 caller -1 site -1 entry 0 nodes 0 1
node 0 @0x1000
node 1 @0x1004
edge 0 1 1
entry 0 exits 1
)");
}

TEST(DecodePins, CallHintToUnmappedAddress) {
  // The callee is recorded and its fetch is an issue; it has no entry
  // block, so the supergraph cannot be expanded through it.
  const isa::Image image = assemble(R"(
        .global main
main:   callr t0
        halt
)");
  ResolutionHints hints;
  hints.indirect_targets[0x1000] = {0x9000};
  const Program program = Program::reconstruct(image, image.entry(), hints);
  EXPECT_FALSE(program.fully_resolved());
  ASSERT_EQ(program.functions().size(), 2u);
  EXPECT_TRUE(program.function_at(0x9000).blocks.empty());
  EXPECT_EQ(program.function_at(0x9000).name, "fn_0x9000");
  ASSERT_EQ(program.issues().size(), 1u);
  EXPECT_EQ(program.issues()[0].pc, 0x9000u);
  EXPECT_ANY_THROW(Supergraph::expand(program));
}

TEST(DecodePins, BranchIntoDecodedRunSplitsTheBlock) {
  const isa::Image image = assemble(R"(
        .global main
main:   addi t0, t0, 1
mid:    addi t0, t0, 2
        blt  t0, a0, mid
        halt
)");
  const Program program = Program::reconstruct(image, image.entry());
  const CfgFunction& fn = program.functions().begin()->second;
  ASSERT_EQ(fn.blocks.size(), 3u);
  const CfgBlock& head = fn.block_at(0x1000);
  EXPECT_EQ(head.end, 0x1004u);
  EXPECT_EQ(head.term, Term::fallthrough);
  EXPECT_EQ(head.succs, std::vector<std::uint32_t>{0x1004});
  EXPECT_EQ(decode_layer_text(program), R"(function main @0x1000
  block [0x1000, 0x1004) succs: 0x1004
    addi t0, t0, 1
  block [0x1004, 0x100c) succs: 0x100c 0x1004
    addi t0, t0, 2
    blt t0, a0, mid
  block [0x100c, 0x1010) succs:
    halt
instance 0 fn 0x1000 caller -1 site -1 entry 0 nodes 0 1 2
node 0 @0x1000
node 1 @0x1004
node 2 @0x100c
edge 0 1 0
edge 1 2 0
edge 1 1 1
entry 0 exits 2
loop 0 header 1 parent -1 nodes 1 back 2 children
)");
}

TEST(DecodePins, ControlFlowLeavesTheTextSection) {
  // Straight-line code runs off the end of .text into a read-only
  // section whose first word is a halt, and a hinted jump lands further
  // into that section: both are decoded where they land.
  std::vector<std::uint8_t> text;
  put_word(text, isa::encode({isa::Opcode::beq, 0, isa::reg_a0, isa::reg_zero, 4}));
  put_word(text, isa::encode({isa::Opcode::jalr, isa::reg_zero, isa::reg_t1, 0, 0}));
  put_word(text, isa::encode({isa::Opcode::addi, isa::reg_t0, isa::reg_t0, 0, 1}));
  std::vector<std::uint8_t> rodata;
  put_word(rodata, isa::encode({isa::Opcode::halt, 0, 0, 0, 0}));
  put_word(rodata, isa::encode({isa::Opcode::addi, isa::reg_t0, isa::reg_t0, 0, 2}));
  put_word(rodata, isa::encode({isa::Opcode::halt, 0, 0, 0, 0}));
  isa::Image image;
  image.add_section(text_section(0x1000, std::move(text)));
  isa::Section ro;
  ro.name = ".rodata";
  ro.vaddr = 0x100c;
  ro.bytes = std::move(rodata);
  image.add_section(std::move(ro));
  image.set_entry(0x1000);
  ResolutionHints hints;
  hints.indirect_targets[0x1004] = {0x1010};
  const Program program = Program::reconstruct(image, image.entry(), hints);
  EXPECT_TRUE(program.fully_resolved());
  EXPECT_EQ(program.functions().begin()->second.block_at(0x1008).end, 0x1010u);
  EXPECT_EQ(decode_layer_text(program), R"(function fn_0x1000 @0x1000
  block [0x1000, 0x1004) succs: 0x1004 0x1008
    beq a0, zero, 0x1008
  block [0x1004, 0x1008) succs: 0x1010
    jalr zero, t1, 0
  block [0x1008, 0x1010) succs:
    addi t0, t0, 1
    halt
  block [0x1010, 0x1018) succs:
    addi t0, t0, 2
    halt
instance 0 fn 0x1000 caller -1 site -1 entry 0 nodes 0 1 2 3
node 0 @0x1000
node 1 @0x1004
node 2 @0x1008
node 3 @0x1010
edge 0 1 0
edge 0 2 1
edge 1 3 1
entry 0 exits 2 3
)");
}

TEST(DecodePins, OneFunctionReachedFromTwoCallers) {
  const isa::Image image = assemble(R"(
        .global main
        .global a
        .global b
        .global leaf
main:   call a
        call b
        halt
a:      call leaf
        ret
b:      beq  a0, zero, b_out
        call leaf
b_out:  ret
leaf:   addi a0, a0, 1
        ret
)");
  const Program program = Program::reconstruct(image, image.entry());
  EXPECT_EQ(program.functions().size(), 4u);
  const Supergraph sg = Supergraph::expand(program);
  ASSERT_EQ(sg.instances().size(), 5u); // main, a, leaf, b, leaf
  EXPECT_EQ(decode_layer_text(program), R"(function main @0x1000
  block [0x1000, 0x1004) succs: 0x1004 calls: 0x100c
    jal ra, a
  block [0x1004, 0x1008) succs: 0x1008 calls: 0x1014
    jal ra, b
  block [0x1008, 0x100c) succs:
    halt
function a @0x100c
  block [0x100c, 0x1010) succs: 0x1010 calls: 0x1020
    jal ra, leaf
  block [0x1010, 0x1014) succs:
    jalr zero, ra, 0
function b @0x1014
  block [0x1014, 0x1018) succs: 0x1018 0x101c
    beq a0, zero, b_out
  block [0x1018, 0x101c) succs: 0x101c calls: 0x1020
    jal ra, leaf
  block [0x101c, 0x1020) succs:
    jalr zero, ra, 0
function leaf @0x1020
  block [0x1020, 0x1028) succs:
    addi a0, a0, 1
    jalr zero, ra, 0
instance 0 fn 0x1000 caller -1 site -1 entry 0 nodes 0 1 2
instance 1 fn 0x100c caller 0 site 0 entry 3 nodes 3 4
instance 2 fn 0x1020 caller 1 site 3 entry 5 nodes 5
instance 3 fn 0x1014 caller 0 site 1 entry 6 nodes 6 7 8
instance 4 fn 0x1020 caller 3 site 7 entry 9 nodes 9
node 0 @0x1000
node 1 @0x1004
node 2 @0x1008
node 3 @0x100c
node 4 @0x1010
node 5 @0x1020
node 6 @0x1014
node 7 @0x1018
node 8 @0x101c
node 9 @0x1020
edge 3 5 2
edge 5 4 3
edge 0 3 2
edge 4 1 3
edge 6 7 0
edge 6 8 1
edge 7 9 2
edge 9 8 3
edge 1 6 2
edge 8 2 3
entry 0 exits 2
)");
}

TEST(DecodePins, ShapeFingerprints) {
  // Fingerprint of decode_layer_text for every differential shape.
  const std::map<std::string, std::uint64_t> pinned = {
      {"deep_chain_8", 0xc87667f68adbec75ull},
      {"deep_chain_12", 0x89eb78d4878837afull},
      {"wide_fan_16", 0x277ce56eef02403ull},
      {"fan_of_chains", 0x1e22f1a55afcb051ull},
      {"balanced_tree", 0xe2a83dcd6fd0889bull},
      {"loop_nested_calls", 0xca7cea4838fc36aaull},
      {"chain_with_loop_call", 0x4b6f06f55c343a98ull},
      {"repeated_callee", 0xb7fba810e0bc58dbull},
      {"conditional_fan", 0xe218bc3ed22b1d07ull},
      {"coupled_flow_cap", 0xe218bc3ed22b1d07ull},
      {"coupled_ratio", 0xe218bc3ed22b1d07ull},
      {"coupled_infeasible_pair", 0xe218bc3ed22b1d07ull},
      {"coupled_never", 0xe218bc3ed22b1d07ull},
      {"coupled_cap_on_chain", 0xc87667f68adbec75ull},
      {"coupled_cap_on_deep_tree", 0x8b4ebcfe58629f4full},
      {"single_fn_diamonds", 0x44e3e691c5f546c3ull},
      {"single_fn_if_ladder", 0x84e29ea71142d1e5ull},
      {"single_fn_nested_loops", 0x8e67fa9c16f6b7bcull},
      {"single_fn_irreducible", 0x70da2d41794f8eb6ull},
      {"nested_sequential_loops", 0x8bbe2bca820cb039ull},
  };
  std::vector<testshapes::Shape> shapes = testshapes::shapes();
  // Loop shapes outside the battery: an irreducible loop, and an outer
  // loop around many sequential inner loops.
  shapes.push_back({"single_fn_irreducible", testshapes::single_fn_irreducible(), "", "", false});
  shapes.push_back({"nested_sequential_loops",
                    testshapes::nested_sequential_loops(3, 20, 4), "", "", false});
  for (const testshapes::Shape& shape : shapes) {
    const auto built = mcc::compile_program(shape.source);
    const Program program = Program::reconstruct(built.image, built.image.entry());
    const std::uint64_t fp = fnv1a(decode_layer_text(program));
    const auto it = pinned.find(shape.name);
    ASSERT_NE(it, pinned.end()) << shape.name;
    EXPECT_EQ(fp, it->second) << shape.name;
  }
}

} // namespace
} // namespace wcet::cfg
