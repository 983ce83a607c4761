//===- Reduce.cpp - Delta-debugging reducer for miscompiles --------------------===//

#include "verify/Reduce.h"

#include "cfg/FunctionPrinter.h"

#include <algorithm>
#include <vector>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::verify;

namespace {

int blockCount(const Program &P) {
  int N = 0;
  for (const auto &F : P.Functions)
    N += F->size();
  return N;
}

/// The predicate of both stages: does the failing job's fuzz check still
/// flag the candidate (MiniC source, or a legalized program)?
struct StillFails {
  FuzzCheckOptions Check;

  explicit StillFails(const ReduceOptions &O) : Check(O.Check) {
    // Hundreds of candidate compiles would swamp a shared trace sink.
    Check.Trace = obs::TraceConfig();
    Check.Oracle.Sink = nullptr;
    Check.MaxSteps = O.MaxSteps;
  }

  template <class Candidate> bool operator()(const Candidate &C) const {
    return fuzzCheck(C, Check).miscompiled();
  }

  /// Never reduce into a hang. Deleting lines or blocks readily leaves a
  /// loop without its exit, and the oracle would then run every input of
  /// every check to its full budget. Once the original has failed, each
  /// run of a candidate therefore gets twice the RTLs of the original's
  /// longest finished run (at most \p MaxSteps); the runs that showed the
  /// failure fit that budget.
  void budgetFrom(const FuzzVerdict &Original, uint64_t MaxSteps) {
    const uint64_t Budget = std::min(MaxSteps, 2 * Original.LongestRun);
    Check.MaxSteps = Budget;
    Check.Oracle.MaxSteps = std::min(Check.Oracle.MaxSteps, Budget);
  }
};

/// Splits into lines, keeping content only (the terminators are re-added
/// on join).
std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t End = S.find('\n', Start);
    if (End == std::string::npos) {
      if (Start < S.size())
        Lines.push_back(S.substr(Start));
      break;
    }
    Lines.push_back(S.substr(Start, End - Start));
    Start = End + 1;
  }
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines,
                      const std::vector<bool> &Keep) {
  std::string Out;
  for (size_t I = 0; I < Lines.size(); ++I)
    if (Keep[I]) {
      Out += Lines[I];
      Out += '\n';
    }
  return Out;
}

/// ddmin over source lines: try dropping chunks of halving size until no
/// single-line removal survives the predicate.
std::string ddminLines(const StillFails &Fails, const std::string &Src) {
  std::vector<std::string> Lines = splitLines(Src);
  std::vector<bool> Keep(Lines.size(), true);
  size_t Live = Lines.size();
  for (size_t Chunk = Live ? (Live + 1) / 2 : 0; Chunk >= 1;) {
    bool Any = false;
    for (size_t At = 0; At < Lines.size();) {
      // Collect the next Chunk live lines starting at At.
      std::vector<size_t> Idx;
      size_t Cursor = At;
      while (Cursor < Lines.size() && Idx.size() < Chunk) {
        if (Keep[Cursor])
          Idx.push_back(Cursor);
        ++Cursor;
      }
      if (Idx.empty())
        break;
      for (size_t I : Idx)
        Keep[I] = false;
      if (Fails(joinLines(Lines, Keep))) {
        Any = true;
        Live -= Idx.size();
      } else {
        for (size_t I : Idx)
          Keep[I] = true;
      }
      At = Cursor;
    }
    if (Chunk == 1 && !Any)
      break;
    if (!Any)
      Chunk = Chunk / 2;
    // On progress, retry at the same granularity: smaller programs often
    // unlock chunks that previously failed to parse.
  }
  return joinLines(Lines, Keep);
}

/// True when no branch or jump table anywhere in \p F references the
/// label of block \p Idx (so erasing the block cannot dangle a target).
bool labelUnreferenced(const Function &F, int Idx) {
  const int Label = F.block(Idx)->Label;
  for (int B = 0; B < F.size(); ++B)
    for (const rtl::Insn &I : F.block(B)->Insns) {
      if ((I.Op == rtl::Opcode::Jump || I.Op == rtl::Opcode::CondJump) &&
          I.Target == Label)
        return false;
      if (I.Op == rtl::Opcode::SwitchJump)
        for (int L : I.Table)
          if (L == Label)
            return false;
    }
  return true;
}

/// Applies the first structural RTL mutation that survives the predicate
/// and returns true; returns false when none does (fixpoint). Candidates
/// are built on clones, and P is replaced wholesale on success so no
/// reference into the old program outlives the mutation -
/// Function::verify aborts on malformed graphs, so only mutations that
/// are valid a priori are attempted at all.
bool applyOneMutation(const StillFails &Fails, Program &P) {
  auto tryCandidate = [&](Program &&Cand) {
    if (!Fails(Cand))
      return false;
    P = std::move(Cand);
    return true;
  };

  for (size_t FI = 0; FI < P.Functions.size(); ++FI) {
    // Stub the whole non-main function to a bare return.
    if (P.Functions[FI]->Name != "main" &&
        (P.Functions[FI]->size() > 1 ||
         P.Functions[FI]->block(0)->Insns.size() > 1)) {
      Program Cand = P.clone();
      Function &CF = *Cand.Functions[FI];
      CF.block(0)->Insns.assign(1, rtl::Insn::ret());
      CF.block(0)->DelaySlot.reset();
      CF.PromotableLocals.clear(); // no body left to promote into
      CF.noteRtlEdit();
      while (CF.size() > 1)
        CF.eraseBlock(1);
      if (tryCandidate(std::move(Cand)))
        return true;
    }

    const int NumBlocks = P.Functions[FI]->size();
    for (int B = 0; B < NumBlocks; ++B) {
      const BasicBlock *Blk = P.Functions[FI]->block(B);
      auto Term = Blk->terminator();

      // Empty the body down to the terminator (or entirely, for a
      // fall-through block).
      if (Blk->Insns.size() > (Term ? 1u : 0u)) {
        Program Cand = P.clone();
        BasicBlock *CB = Cand.Functions[FI]->block(B);
        if (Term)
          CB->Insns.erase(CB->Insns.begin(), CB->Insns.end() - 1);
        else
          CB->Insns.clear();
        CB->DelaySlot.reset();
        Cand.Functions[FI]->noteRtlEdit();
        if (tryCandidate(std::move(Cand)))
          return true;
      }

      // Delete a conditional branch (the block then falls through).
      if (Term && Term->Op == rtl::Opcode::CondJump && B + 1 < NumBlocks) {
        Program Cand = P.clone();
        Cand.Functions[FI]->block(B)->Insns.pop_back();
        Cand.Functions[FI]->noteRtlEdit();
        if (tryCandidate(std::move(Cand)))
          return true;
      }

      // Collapse an indirect jump to its first arm.
      if (Term && Term->Op == rtl::Opcode::SwitchJump &&
          !Term->Table.empty()) {
        Program Cand = P.clone();
        Cand.Functions[FI]->block(B)->Insns.back() =
            rtl::Insn::jump(Term->Table[0]);
        Cand.Functions[FI]->noteRtlEdit();
        if (tryCandidate(std::move(Cand)))
          return true;
      }

      // Erase a non-final block nothing branches to (predecessors that
      // fell into it simply fall further).
      if (B + 1 < NumBlocks && NumBlocks > 1 &&
          labelUnreferenced(*P.Functions[FI], B)) {
        Program Cand = P.clone();
        Cand.Functions[FI]->eraseBlock(B);
        if (tryCandidate(std::move(Cand)))
          return true;
      }
    }
  }
  return false;
}

} // namespace

ReduceResult verify::reduce(const std::string &Source,
                            const ReduceOptions &O) {
  StillFails Fails(O);
  ReduceResult R;
  R.Source = Source;
  std::string Err;

  const FuzzVerdict Original = fuzzCheck(Source, Fails.Check);
  if (!Original.miscompiled()) {
    Program Ref;
    if (referenceTranslation(Source, O.Check.TK, Ref, Err)) {
      R.RtlDump = toString(Ref);
      R.Blocks = blockCount(Ref);
    }
    R.SourceLines = static_cast<int>(splitLines(Source).size());
    return R;
  }
  R.Mismatch = true;
  Fails.budgetFrom(Original, O.MaxSteps);

  // Stage 1: line-level ddmin.
  R.Source = ddminLines(Fails, Source);
  R.SourceLines = static_cast<int>(splitLines(R.Source).size());

  // Stage 2: RTL-level shrinking of the reduced program. Each applied
  // mutation strictly removes structure, so the guard is a backstop, not
  // a working limit.
  Program P;
  // Cannot fail: ddmin only keeps candidates that compiled.
  if (!referenceTranslation(R.Source, O.Check.TK, P, Err))
    return R;
  const int Guard = O.MaxRounds * 256;
  for (int Step = 0; Step < Guard && applyOneMutation(Fails, P); ++Step) {
  }
  for (const auto &F : P.Functions)
    F->verify();
  R.RtlDump = toString(P);
  R.Blocks = blockCount(P);
  return R;
}
