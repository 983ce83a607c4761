//===- Function.cpp - Functions and whole programs --------------------------===//

#include "cfg/Function.h"

#include "support/Check.h"

using namespace coderep;
using namespace coderep::cfg;

BasicBlock *Function::appendBlock() {
  return appendBlockWithLabel(freshLabel());
}

BasicBlock *Function::appendBlockWithLabel(int Label) {
  CODEREP_CHECK(Label >= 0 && Label < NextLabel, "label was not allocated");
  Blocks.push_back(std::make_unique<BasicBlock>(Label, *Arena));
  invalidateLabelCache();
  return Blocks.back().get();
}

BasicBlock *Function::insertBlock(int Index) {
  CODEREP_CHECK(Index >= 0 && Index <= size(), "insert position out of range");
  Blocks.insert(Blocks.begin() + Index,
                std::make_unique<BasicBlock>(freshLabel(), *Arena));
  invalidateLabelCache();
  return Blocks[Index].get();
}

void Function::insertBlock(int Index, std::unique_ptr<BasicBlock> Block) {
  CODEREP_CHECK(Index >= 0 && Index <= size(), "insert position out of range");
  Blocks.insert(Blocks.begin() + Index, std::move(Block));
  invalidateLabelCache();
}

void Function::eraseBlock(int Index) {
  CODEREP_CHECK(Index >= 0 && Index < size(), "erase position out of range");
  Blocks.erase(Blocks.begin() + Index);
  invalidateLabelCache();
}

int Function::indexOfLabel(int Label) const {
  if (!LabelCacheValid) {
    LabelCache.assign(static_cast<size_t>(NextLabel), -1);
    for (int I = 0; I < size(); ++I)
      LabelCache[static_cast<size_t>(Blocks[I]->Label)] = I;
    LabelCacheValid = true;
  }
  if (Label < 0 || Label >= static_cast<int>(LabelCache.size()))
    return -1;
  return LabelCache[static_cast<size_t>(Label)];
}

std::vector<int> Function::successors(int Index) const {
  std::vector<int> Out;
  forEachSuccessor(Index, [&](int S) { Out.push_back(S); });
  return Out;
}

std::vector<std::vector<int>> Function::predecessors() const {
  std::vector<std::vector<int>> Preds(size());
  for (int I = 0; I < size(); ++I)
    for (int S : successors(I))
      Preds[S].push_back(I);
  return Preds;
}

int Function::rtlCount() const {
  int N = 0;
  for (const auto &B : Blocks)
    N += B->rtlCount();
  return N;
}

void Function::normalizeFallthroughs() {
  bool Changed = false;
  for (int I = 0; I < size(); ++I) {
    BasicBlock *B = block(I);
    // Delete a jump to the positionally next block.
    if (B->endsWithJump() && I + 1 < size() &&
        B->Insns.back().Target == block(I + 1)->Label) {
      B->Insns.pop_back();
      Changed = true;
      continue;
    }
    // A block that falls through must be followed by its successor; the
    // last block must not fall through at all.
    if (!B->endsWithUnconditionalTransfer() && !B->terminator()) {
      // Plain fall-through block: fine unless it is last.
      if (I + 1 == size())
        CODEREP_UNREACHABLE("function falls off the end");
    }
  }
  // A pure audit pass (nothing deleted) leaves the bytes untouched, so
  // cached analyses stay valid: no epoch bump, no cache invalidation.
  if (Changed)
    invalidateLabelCache();
}

std::unique_ptr<Function> Function::clone() const {
  auto F = std::make_unique<Function>(Name);
  F->FrameBytes = FrameBytes;
  F->ParamBytes = ParamBytes;
  F->PromotableLocals = PromotableLocals;
  F->NextLabel = NextLabel;
  F->NextVReg = NextVReg;
  // One wholesale arena copy gives the clone identical slot numbering, so
  // every block's ref list transfers verbatim - no per-instruction work.
  F->Arena = std::make_unique<rtl::InsnArena>(*Arena);
  for (const auto &B : Blocks) {
    auto NB = std::make_unique<BasicBlock>(B->Label, *F->Arena);
    NB->Insns.setRefs(B->Insns.refs());
    NB->DelaySlot = B->DelaySlot;
    F->Blocks.push_back(std::move(NB));
  }
  return F;
}

void Function::adoptBlocksFrom(Function &Other) {
  // The old blocks release their refs into the old arena before it dies.
  Blocks.clear();
  Blocks = std::move(Other.Blocks);
  Arena = std::move(Other.Arena);
  NextLabel = Other.NextLabel;
  NextVReg = Other.NextVReg;
  invalidateLabelCache();
}

void Function::verify() const {
  CODEREP_CHECK(size() > 0, "function has no blocks");
  for (int I = 0; I < size(); ++I) {
    const BasicBlock *B = block(I);
    for (size_t J = 0; J + 1 < B->Insns.size(); ++J)
      CODEREP_CHECK(!B->Insns[J].isTransfer(),
                    "transfer in the middle of a block");
    // forEachSuccessor checks target resolvability and fall-through
    // legality as it walks.
    forEachSuccessor(I, [](int) {});
    if (B->DelaySlot)
      CODEREP_CHECK(!B->DelaySlot->isTransfer(), "transfer in delay slot");
  }
  const BasicBlock *Last = block(size() - 1);
  CODEREP_CHECK(Last->endsWithUnconditionalTransfer(),
                "last block falls off the end of the function");
}

int Program::findFunction(const std::string &Name) const {
  for (size_t I = 0; I < Functions.size(); ++I)
    if (Functions[I]->Name == Name)
      return static_cast<int>(I);
  return -1;
}

int Program::rtlCount() const {
  int N = 0;
  for (const auto &F : Functions)
    N += F->rtlCount();
  return N;
}

Program Program::clone() const {
  Program Out;
  Out.Globals = Globals;
  for (const auto &F : Functions)
    Out.Functions.push_back(F->clone());
  return Out;
}
