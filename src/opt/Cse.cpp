//===- Cse.cpp - Common subexpression elimination ------------------------------===//
//
// Value numbering with copy and constant propagation over extended basic
// blocks: a block with a unique, already-processed predecessor inherits its
// value table. Replication produces exactly such single-predecessor
// fall-through chains, which is how "an initial value is assigned to a
// register, followed by an unconditional jump" collapses after the jump is
// replaced by replicated code (§3.3.2). Store-to-load forwarding is
// included; any store or call invalidates unrelated memory values.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "cfg/FlatCfg.h"
#include "opt/ConstEval.h"
#include "support/Check.h"

#include <array>
#include <optional>
#include <unordered_map>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

using ExprKey = std::array<int64_t, 8>;

/// FNV-1a over the key words. Only used for bucketing - CSE never iterates
/// the expression table, so hash order can't leak into decisions.
struct ExprKeyHash {
  size_t operator()(const ExprKey &K) const {
    uint64_t H = 1469598103934665603ull;
    for (int64_t V : K) {
      H ^= static_cast<uint64_t>(V);
      H *= 1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

/// The value-numbering state at one program point.
///
/// Registers are small dense integers and value numbers are allocated
/// consecutively from 1, so every side table except the expression map is
/// a flat vector indexed directly (-1 / false = absent); the expression
/// map is a hash table. Every container is find-or-insert only - nothing
/// here is ever iterated - so the layout cannot perturb decisions, and
/// the extended-basic-block inheritance copy (one per single-pred block)
/// is a handful of memcpys instead of a node-by-node tree clone. This
/// table sits on the hottest path of the fixpoint loop's local passes.
struct ValueTable {
  std::vector<int> RegVN;    ///< register -> value number (-1 = none)
  std::unordered_map<ExprKey, int, ExprKeyHash>
      ExprVN;                ///< expression -> value number
  std::vector<int64_t> ConstVal; ///< value number -> known constant
  std::vector<uint8_t> HasConst; ///< value number -> constant known?
  std::vector<int> Holder;   ///< value number -> register holding it (-1)
  int MemEpoch = 0;
  int NextVN = 1;

  int freshVN() { return NextVN++; }

  static void ensure(std::vector<int> &V, int I) {
    if (static_cast<size_t>(I) >= V.size())
      V.resize(I + 1, -1);
  }

  /// \p R's value number without creating one, or -1.
  int lookupReg(int R) const {
    return static_cast<size_t>(R) < RegVN.size() ? RegVN[R] : -1;
  }

  int vnOfReg(int R) {
    ensure(RegVN, R);
    if (RegVN[R] >= 0)
      return RegVN[R];
    int VN = freshVN();
    RegVN[R] = VN;
    ensure(Holder, VN);
    Holder[VN] = R;
    return VN;
  }

  int vnOfExpr(ExprKey Key) {
    auto [It, Inserted] = ExprVN.try_emplace(Key, NextVN);
    if (Inserted)
      ++NextVN;
    return It->second;
  }

  bool hasConst(int VN) const {
    return static_cast<size_t>(VN) < HasConst.size() && HasConst[VN];
  }
  int64_t constOf(int VN) const { return ConstVal[VN]; }
  void setConst(int VN, int64_t V) {
    if (static_cast<size_t>(VN) >= HasConst.size()) {
      HasConst.resize(VN + 1, 0);
      ConstVal.resize(VN + 1, 0);
    }
    HasConst[VN] = 1;
    ConstVal[VN] = V;
  }

  int vnOfOperand(const Operand &O) {
    switch (O.Kind) {
    case OperandKind::Reg:
      return vnOfReg(O.Base);
    case OperandKind::Imm: {
      int VN = vnOfExpr({-1, O.Disp, 0, 0, 0, 0, 0, 0});
      setConst(VN, static_cast<int32_t>(O.Disp));
      return VN;
    }
    case OperandKind::Mem:
      return vnOfExpr(memKey(O, MemEpoch));
    case OperandKind::None:
      return vnOfExpr({-3, 0, 0, 0, 0, 0, 0, 0});
    }
    CODEREP_UNREACHABLE("bad operand kind");
  }

  /// Canonical key for a memory access at the given epoch: address
  /// components by value number, plus access size.
  ExprKey memKey(const Operand &O, int Epoch) {
    int64_t BaseVN = O.Base >= 0 ? vnOfReg(O.Base) : -1;
    int64_t IndexVN = O.Index >= 0 ? vnOfReg(O.Index) : -1;
    return {-2, BaseVN, IndexVN, O.Scale, O.Sym, O.Disp, O.Size, Epoch};
  }

  /// Canonical key for the *address* of a memory operand (no epoch; used
  /// by Lea, whose result does not depend on memory contents).
  ExprKey addrKey(const Operand &O) {
    int64_t BaseVN = O.Base >= 0 ? vnOfReg(O.Base) : -1;
    int64_t IndexVN = O.Index >= 0 ? vnOfReg(O.Index) : -1;
    return {-4, BaseVN, IndexVN, O.Scale, O.Sym, O.Disp, 0, 0};
  }

  /// The register currently holding \p VN, or -1.
  int validHolder(int VN) const {
    int H = static_cast<size_t>(VN) < Holder.size() ? Holder[VN] : -1;
    if (H < 0 || lookupReg(H) != VN)
      return -1;
    return H;
  }

  void setReg(int R, int VN) {
    ensure(RegVN, R);
    RegVN[R] = VN;
    if (validHolder(VN) < 0) {
      ensure(Holder, VN);
      Holder[VN] = R;
    }
  }

  void killMemory() { ++MemEpoch; }
};

class CsePass {
public:
  /// \p Flat serves the predecessor lists (the manager's cached CSR
  /// snapshot of \p F).
  CsePass(Function &F, const target::Target &T, const cfg::FlatCfg &Flat)
      : F(F), T(T), Flat(Flat) {}

  bool run() {
    std::vector<std::optional<ValueTable>> OutState(F.size());
    bool Changed = false;
    for (int B = 0; B < F.size(); ++B) {
      ValueTable Table;
      cfg::FlatCfg::Range Preds = Flat.preds(B);
      const int SolePred = Preds.size() == 1 ? *Preds.begin() : -1;
      if (SolePred >= 0 && SolePred < B && OutState[SolePred])
        Table = *OutState[SolePred]; // extended-basic-block inheritance
      Changed |= processBlock(*F.block(B), Table);
      OutState[B] = std::move(Table);
    }
    return Changed;
  }

private:
  Function &F;
  const target::Target &T;
  const cfg::FlatCfg &Flat;

  bool processBlock(BasicBlock &B, ValueTable &VT);
  template <class InsnT> bool rewriteOperands(InsnT &I, ValueTable &VT);
};

/// \p I is an Insn or an arena view; rewrites through a view land directly
/// in the SoA operand streams.
template <class InsnT>
bool CsePass::rewriteOperands(InsnT &I, ValueTable &VT) {
  // SP/FP arithmetic is the stack discipline: hands off.
  int D = I.definedReg();
  if (D == RegSP || D == RegFP)
    return false;
  bool Changed = false;
  auto rewrite = [&](Operand &O, bool ValuePosition) {
    if (!ValuePosition || !O.isReg())
      return;
    if (O.Base == RegSP || O.Base == RegFP || O.Base == RegCC)
      return;
    int VN = VT.vnOfReg(O.Base);
    Operand Saved = O;
    // Constant propagation first.
    if (VT.hasConst(VN)) {
      O = Operand::imm(VT.constOf(VN));
      if (T.isLegal(I)) {
        Changed |= !(O == Saved);
        return;
      }
      O = Saved;
    }
    // Copy propagation: use the oldest holder of the same value.
    int H = VT.validHolder(VN);
    if (H >= 0 && H != O.Base && H != RegCC && H != RegRV) {
      O = Operand::reg(H);
      if (T.isLegal(I)) {
        Changed = true;
        return;
      }
      O = Saved;
    }
  };
  rewrite(I.Src1, true);
  rewrite(I.Src2, true);
  return Changed;
}

bool CsePass::processBlock(BasicBlock &B, ValueTable &VT) {
  bool Changed = false;
  for (size_t Idx = 0; Idx < B.Insns.size(); ++Idx) {
    auto I = B.Insns[Idx];
    Changed |= rewriteOperands(I, VT);

    int D = I.definedReg();
    bool StackDef = D == RegSP || D == RegFP;

    switch (I.Op) {
    case Opcode::Move: {
      if (I.Dst.isMem()) {
        // Store: kill memory, then forward the stored value to later loads
        // of the same address.
        int VN = VT.vnOfOperand(I.Src1);
        VT.killMemory();
        // Store-to-load forwarding is value-preserving only for full
        // words: a byte store truncates and the later load sign-extends.
        if (I.Dst.Size == 4)
          VT.ExprVN[VT.memKey(I.Dst, VT.MemEpoch)] = VN;
        break;
      }
      if (StackDef) {
        VT.setReg(D, VT.freshVN());
        break;
      }
      int VN = VT.vnOfOperand(I.Src1);
      // A load whose value is already in a register becomes a register
      // move; a known constant becomes an immediate move.
      if (I.Src1.isMem()) {
        int H = VT.validHolder(VN);
        if (VT.hasConst(VN)) {
          Insn New = Insn::move(I.Dst, Operand::imm(VT.constOf(VN)));
          if (T.isLegal(New)) {
            I = New;
            Changed = true;
          }
        } else if (H >= 0 && H != D && H != RegCC) {
          Insn New = Insn::move(I.Dst, Operand::reg(H));
          if (T.isLegal(New)) {
            I = New;
            Changed = true;
          }
        }
      }
      VT.setReg(D, VN);
      if (I.Src1.isImm())
        VT.setConst(VN, static_cast<int32_t>(I.Src1.Disp));
      break;
    }
    case Opcode::Lea:
    case Opcode::Neg:
    case Opcode::Not:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr: {
      if (StackDef || !I.Dst.isReg()) {
        if (I.Dst.isMem())
          VT.killMemory();
        if (D >= 0)
          VT.setReg(D, VT.freshVN());
        break;
      }
      ExprKey Key;
      int VN1 = -1, VN2 = -1;
      if (I.Op == Opcode::Lea) {
        Key = VT.addrKey(I.Src1);
      } else {
        VN1 = VT.vnOfOperand(I.Src1);
        VN2 = VT.vnOfOperand(I.Src2);
        Key = {static_cast<int>(I.Op), VN1, VN2, 0, 0, 0, 0, 0};
      }
      int VN = VT.vnOfExpr(Key);
      // Constant propagation through the operation itself: when every
      // operand's value is known, the result is known, even on targets
      // where an immediate operand would be illegal in this RTL.
      if (I.Op != Opcode::Lea && !VT.hasConst(VN)) {
        int64_t R;
        if (I.isUnaryOp()) {
          if (VT.hasConst(VN1) && evalConstUnary(I.Op, VT.constOf(VN1), R))
            VT.setConst(VN, R);
        } else if (I.isBinaryOp()) {
          if (VT.hasConst(VN1) && VT.hasConst(VN2) &&
              evalConstBinary(I.Op, VT.constOf(VN1), VT.constOf(VN2), R))
            VT.setConst(VN, R);
        }
      }
      int H = VT.validHolder(VN);
      if (VT.hasConst(VN)) {
        Insn New = Insn::move(I.Dst, Operand::imm(VT.constOf(VN)));
        if (T.isLegal(New) && !(New == I)) {
          I = New;
          Changed = true;
        }
      } else if (H >= 0 && H != D) {
        Insn New = Insn::move(I.Dst, Operand::reg(H));
        if (T.isLegal(New)) {
          I = New;
          Changed = true;
        }
      }
      VT.setReg(D, VN);
      break;
    }
    case Opcode::Compare: {
      int VN1 = VT.vnOfOperand(I.Src1);
      int VN2 = VT.vnOfOperand(I.Src2);
      int VN = VT.vnOfExpr(
          {static_cast<int>(Opcode::Compare), VN1, VN2, 0, 0, 0, 0, 0});
      if (VT.hasConst(VN1) && VT.hasConst(VN2))
        VT.setConst(VN, static_cast<int32_t>(VT.constOf(VN1)) -
                            static_cast<int64_t>(static_cast<int32_t>(
                                VT.constOf(VN2))));
      VT.setReg(RegCC, VN);
      break;
    }
    case Opcode::CondJump: {
      // Constant folding at conditional branches, with the comparison
      // value propagated across the extended basic block (§3.3.1).
      int CC = VT.lookupReg(RegCC);
      if (CC >= 0 && VT.hasConst(CC)) {
        if (condHoldsFor(I.Cond, VT.constOf(CC)))
          I = Insn::jump(I.Target);
        else
          B.Insns.erase(B.Insns.begin() + Idx);
        Changed = true;
        return Changed; // terminator handled; block done
      }
      break;
    }
    case Opcode::Call:
      VT.killMemory();
      VT.setReg(RegRV, VT.freshVN());
      break;
    case Opcode::Jump:
    case Opcode::SwitchJump:
    case Opcode::Return:
    case Opcode::Nop:
      break;
    }
  }
  return Changed;
}

} // namespace

PassResult opt::runLocalCse(Function &F, const target::Target &T,
                            AnalysisManager &AM) {
  // The FlatCfg reference stays valid through run(): CSE edits in place
  // and never queries the manager again.
  const bool Changed = CsePass(F, T, AM.flatCfg()).run();
  // Constant propagation folds conditional branches into jumps (or
  // deletes them), changing edges, so a change preserves no shape or
  // dataflow result.
  return {Changed, PreservedAnalyses::none()};
}
