//===- Function.h - Functions and whole programs ----------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function (an ordered list of basic blocks plus frame layout) and Program
/// (functions + global data). Blocks are stored by value pointer in
/// positional order; all analyses address blocks by positional index, and
/// branches address them by label, so replication can splice copies into the
/// positional order without disturbing either.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CFG_FUNCTION_H
#define CODEREP_CFG_FUNCTION_H

#include "cfg/BasicBlock.h"
#include "support/Check.h"

#include <memory>
#include <string>
#include <vector>

namespace coderep::cfg {

/// A compiled function.
class Function {
public:
  explicit Function(std::string Name)
      : Name(std::move(Name)), Arena(std::make_unique<rtl::InsnArena>()) {}

  /// The struct-of-arrays instruction store every block of this function
  /// allocates from. Owned behind a pointer so block sequences can hold a
  /// stable arena address across Function moves.
  rtl::InsnArena &arena() { return *Arena; }
  const rtl::InsnArena &arena() const { return *Arena; }

  std::string Name;
  int FrameBytes = 0; ///< bytes of locals below the frame pointer
  int ParamBytes = 0; ///< bytes of incoming parameters above FP

  /// FP-relative offsets of word-sized scalar variables whose address is
  /// never taken. Filled by the front end; the optimizer's register
  /// assignment promotes these to registers (the "register assignment"
  /// phase of the paper's Figure 3).
  std::vector<int> PromotableLocals;

  /// Appends a new empty block with a fresh label and returns it.
  BasicBlock *appendBlock();

  /// Appends a new empty block carrying \p Label, which must have been
  /// obtained from freshLabel() (supports forward branch references).
  BasicBlock *appendBlockWithLabel(int Label);

  /// Inserts a new empty block with a fresh label at position \p Index.
  BasicBlock *insertBlock(int Index);

  /// Inserts an existing block at position \p Index (takes ownership).
  void insertBlock(int Index, std::unique_ptr<BasicBlock> Block);

  /// Removes the block at position \p Index.
  void eraseBlock(int Index);

  int size() const { return static_cast<int>(Blocks.size()); }
  BasicBlock *block(int Index) { return Blocks[Index].get(); }
  const BasicBlock *block(int Index) const { return Blocks[Index].get(); }

  /// Returns the positional index of the block labelled \p Label, or -1.
  int indexOfLabel(int Label) const;

  /// Allocates a label never used before in this function.
  int freshLabel() { return NextLabel++; }

  /// One past the largest label ever allocated. Together with vregLimit()
  /// this pins the counters that decide which fresh names a transformation
  /// will pick, so content keys built over it (cache::PipelineCache)
  /// capture everything that can perturb optimized output bytes.
  int labelLimit() const { return NextLabel; }

  /// Allocates a virtual register never used before in this function.
  int freshVReg() { return NextVReg++; }

  /// One past the largest virtual register ever allocated.
  int vregLimit() const { return NextVReg; }

  /// Positional indices of the possible successors of block \p Index:
  /// fall-through first for conditional branches and plain fall-through
  /// blocks, then explicit targets.
  std::vector<int> successors(int Index) const;

  /// Allocation-free variant: invokes \p Visit with each successor index,
  /// in the same order as successors(). For analyses that walk the whole
  /// graph repeatedly (liveness, shortest paths), prefer building a
  /// FlatCfg snapshot once instead.
  template <typename Fn> void forEachSuccessor(int Index, Fn &&Visit) const;

  /// Monotonic counter bumped by every block-list mutation (append,
  /// insert, erase, adopt, normalize). Analyses may record it to assert
  /// the block *sequence* they were built over is unchanged. It does NOT
  /// observe in-place edits to BasicBlock::Insns - passes rewrite those
  /// directly - so caches keyed on flow-graph shape key on
  /// analysisEpoch() instead.
  uint64_t cfgVersion() const { return Version; }

  /// The analysis epoch: a counter bumped by every block-list mutation AND
  /// by noteRtlEdit(), the hook passes call after in-place RTL edits. An
  /// analysis result stamped with the epoch it was computed at is valid
  /// exactly while the function's epoch still equals that stamp (see
  /// cfg::AnalysisManager). Unlike cfgVersion() this
  /// is not strictly monotonic over time: restoreAnalysisEpoch() winds it
  /// back when a transformation is rolled back byte-for-byte.
  uint64_t analysisEpoch() const { return AnalysisEpoch; }

  /// Declares that RTLs inside blocks were edited in place (the block list
  /// itself is unchanged, so cfgVersion() stays put). Every pass mutation
  /// path must reach either this hook or a block-list mutator before any
  /// further analysis query, or cached analyses go stale.
  void noteRtlEdit() { ++AnalysisEpoch; }

  /// Declares that block labels were remapped in place (payloads moved
  /// between positions, as block reordering does): drops the label cache
  /// and bumps both counters. normalizeFallthroughs() no longer bumps
  /// unconditionally, so a transformation that remaps labels must call
  /// this itself rather than ride on the normalize call.
  void noteBlockRemap() { invalidateLabelCache(); }

  /// Rolls the analysis epoch back to \p Epoch, a value previously read
  /// from analysisEpoch(). Only valid when the function bytes have been
  /// restored to exactly the state they had at that reading (the JUMPS
  /// undo-log rollback); cached analyses stamped at \p Epoch then describe
  /// the function again.
  void restoreAnalysisEpoch(uint64_t Epoch) {
    CODEREP_CHECK(Epoch <= AnalysisEpoch,
                  "analysis epoch may only be restored backwards");
    AnalysisEpoch = Epoch;
  }

  /// Predecessor lists for every block.
  std::vector<std::vector<int>> predecessors() const;

  /// Total number of RTLs (the paper's static instruction count for this
  /// function).
  int rtlCount() const;

  /// Re-establishes the structural invariants after a transformation that
  /// reordered or removed blocks: a block whose fall-through successor is
  /// not the positionally next block gets an explicit Jump appended, and a
  /// Jump to the positionally next block is deleted.
  void normalizeFallthroughs();

  /// Deep copy, used by JUMPS step 6 to roll back a replication that made
  /// the flow graph non-reducible.
  std::unique_ptr<Function> clone() const;

  /// Moves the whole block list out / in (used with clone() for rollback).
  void adoptBlocksFrom(Function &Other);

  /// Verifies structural invariants (transfers only at block ends, branch
  /// targets resolvable, final block does not fall off the end). Aborts
  /// with a message on violation.
  void verify() const;

private:
  // Declared before Blocks: block sequences return their InsnRefs to the
  // arena on destruction, so the arena must be destroyed last.
  std::unique_ptr<rtl::InsnArena> Arena;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  int NextLabel = 0;
  int NextVReg = rtl::FirstVirtual;

  uint64_t Version = 0;
  uint64_t AnalysisEpoch = 0;

  /// Label id -> positional index (-1 when the label names no block),
  /// rebuilt lazily after every block-list mutation. Labels are dense
  /// (freshLabel() counts up from 0), so a flat vector beats the old
  /// unordered_map on the replication passes' hottest lookup path.
  mutable std::vector<int> LabelCache;
  mutable bool LabelCacheValid = false;
  void invalidateLabelCache() {
    LabelCacheValid = false;
    ++Version;
    ++AnalysisEpoch;
  }
};

template <typename Fn>
void Function::forEachSuccessor(int Index, Fn &&Visit) const {
  const BasicBlock *B = block(Index);
  auto T = B->terminator();
  auto visitLabel = [&](int Label) {
    int Idx = indexOfLabel(Label);
    CODEREP_CHECK(Idx >= 0, "branch to unknown label");
    Visit(Idx);
  };
  if (!T) {
    if (Index + 1 < size())
      Visit(Index + 1);
    return;
  }
  switch (T->Op) {
  case rtl::Opcode::CondJump:
    CODEREP_CHECK(Index + 1 < size(), "conditional branch falls off the end");
    Visit(Index + 1);
    visitLabel(T->Target);
    break;
  case rtl::Opcode::Jump:
    visitLabel(T->Target);
    break;
  case rtl::Opcode::SwitchJump:
    for (int Label : T->Table)
      visitLabel(Label);
    break;
  case rtl::Opcode::Return:
    break;
  default:
    CODEREP_UNREACHABLE("non-transfer terminator");
  }
}

/// A global datum. Globals are laid out contiguously by the interpreter;
/// memory operands reference them by symbol id.
struct Global {
  std::string Name;
  int Size = 0;               ///< bytes
  std::vector<uint8_t> Init;  ///< initializer, zero-padded to Size

  /// Relocations: the word at byte offset .first receives the runtime
  /// address of global .second (for string tables like char *t[] = {...}).
  std::vector<std::pair<int, int>> Relocs;
};

/// A whole compiled program.
class Program {
public:
  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<Global> Globals;

  /// Index of function \p Name, or -1.
  int findFunction(const std::string &Name) const;

  /// Adds a global and returns its symbol id.
  int addGlobal(Global G) {
    Globals.push_back(std::move(G));
    return static_cast<int>(Globals.size()) - 1;
  }

  /// Total static RTL count over all functions (Table 5's "static
  /// instructions").
  int rtlCount() const;

  /// A deep copy: every function cloned, the globals copied.
  Program clone() const;
};

} // namespace coderep::cfg

#endif // CODEREP_CFG_FUNCTION_H
