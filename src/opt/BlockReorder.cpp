//===- BlockReorder.cpp - Basic-block placement -------------------------------===//
//
// The paper's "reorder basic blocks to minimize jumps": blocks bound by
// fall-through edges form chains that cannot be separated; chains are
// re-placed so that a chain ending in "goto L" is followed by the chain
// headed by L whenever possible, turning the jump into a fall-through.
// Also provides fall-through block merging, which grows the basic blocks
// the paper's §5.2 statistics talk about.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "support/Check.h"

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

PassResult opt::runBlockReorder(Function &F) {
  int N = F.size();
  if (N <= 1)
    return {};

  // Partition the positional order into fall-through chains.
  std::vector<std::vector<int>> Chains;
  std::vector<int> ChainOf(N, -1);
  for (int I = 0; I < N; ++I) {
    bool StartsChain =
        I == 0 || F.block(I - 1)->endsWithUnconditionalTransfer();
    if (StartsChain)
      Chains.push_back({});
    Chains.back().push_back(I);
    ChainOf[I] = static_cast<int>(Chains.size()) - 1;
  }
  if (Chains.size() <= 1)
    return {};

  // Greedy placement: after placing a chain that ends in "goto L", place
  // the chain headed by L if it is still unplaced.
  std::vector<bool> Placed(Chains.size(), false);
  std::vector<int> NewOrder;
  NewOrder.reserve(N);
  size_t NextFresh = 0;
  int Current = 0; // the entry chain goes first
  while (true) {
    Placed[Current] = true;
    for (int B : Chains[Current])
      NewOrder.push_back(B);
    int Tail = Chains[Current].back();
    int Follow = -1;
    const BasicBlock *TailBlock = F.block(Tail);
    if (TailBlock->endsWithJump()) {
      int TargetIdx = F.indexOfLabel(TailBlock->Insns.back().Target);
      CODEREP_CHECK(TargetIdx >= 0, "jump to unknown label");
      int C = ChainOf[TargetIdx];
      if (!Placed[C] && Chains[C].front() == TargetIdx)
        Follow = C;
    }
    if (Follow < 0) {
      while (NextFresh < Chains.size() && Placed[NextFresh])
        ++NextFresh;
      if (NextFresh == Chains.size())
        break;
      Follow = static_cast<int>(NextFresh);
    }
    Current = Follow;
  }

  bool Moved = false;
  for (int I = 0; I < N; ++I)
    if (NewOrder[I] != I)
      Moved = true;
  if (!Moved)
    return {};

  // Rebuild the blocks in the new order by moving their payloads; labels
  // travel with the payload, so branches stay correct.
  struct Payload {
    int Label;
    InsnSeq Insns;
    std::optional<Insn> Slot;
  };
  std::vector<Payload> Payloads;
  Payloads.reserve(N);
  for (int I = 0; I < N; ++I) {
    BasicBlock *B = F.block(I);
    Payloads.push_back({B->Label, std::move(B->Insns), B->DelaySlot});
  }
  for (int I = 0; I < N; ++I) {
    BasicBlock *B = F.block(I);
    Payload &P = Payloads[NewOrder[I]];
    B->Label = P.Label;
    B->Insns = std::move(P.Insns);
    B->DelaySlot = P.Slot;
  }
  // The payload moves above changed the label-to-index mapping without
  // touching the block list, so invalidate explicitly; then delete jumps
  // that became jumps-to-next.
  F.noteBlockRemap();
  F.normalizeFallthroughs();
  // Reordering restructures the block list outright, so every shape and
  // dataflow result is invalid. The shortest-path matrix stays marked
  // preserved: it is fingerprint-revalidated on every reuse, and such a
  // change always perturbs the fingerprint.
  return {true, PreservedAnalyses::none().preserve(AnalysisID::ShortestPaths)};
}

PassResult opt::runMergeFallthroughs(Function &F) {
  int N = F.size();
  if (N <= 1)
    return {};
  std::vector<int> PredCount(N, 0);
  for (int I = 0; I < N; ++I)
    F.forEachSuccessor(I, [&](int S) { ++PredCount[S]; });
  // A block without a terminator falls through, so when its positional
  // successor has exactly one predecessor that predecessor is the block
  // itself and the pair always merges. Merging never changes any other
  // block's terminator or predecessor count, so a single right-to-left
  // sweep reaches the same fixpoint as re-deriving predecessor lists after
  // every merge; processing high indices first keeps PredCount (indexed by
  // original position) valid for the pairs still to come.
  bool Changed = false;
  for (int I = N - 2; I >= 0; --I) {
    BasicBlock *B = F.block(I);
    if (B->terminator())
      continue; // only plain fall-through blocks are merge heads
    if (PredCount[I + 1] != 1)
      continue;
    BasicBlock *Next = F.block(I + 1);
    CODEREP_CHECK(!B->DelaySlot && !Next->DelaySlot,
                  "merging after delay-slot filling");
    B->Insns.spliceBack(Next->Insns);
    F.eraseBlock(I + 1);
    Changed = true;
  }
  // Merging erases blocks (same argument as block reordering above).
  return {Changed,
          PreservedAnalyses::none().preserve(AnalysisID::ShortestPaths)};
}

