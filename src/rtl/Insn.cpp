//===- Insn.cpp - RTL instructions -----------------------------------------===//

#include "rtl/Insn.h"

#include "rtl/InsnArena.h"
#include "rtl/InsnOps.h"

#include "support/Check.h"
#include "support/Format.h"

using namespace coderep;
using namespace coderep::rtl;

CondCode rtl::negate(CondCode C) {
  switch (C) {
  case CondCode::Eq:
    return CondCode::Ne;
  case CondCode::Ne:
    return CondCode::Eq;
  case CondCode::Lt:
    return CondCode::Ge;
  case CondCode::Le:
    return CondCode::Gt;
  case CondCode::Gt:
    return CondCode::Le;
  case CondCode::Ge:
    return CondCode::Lt;
  }
  CODEREP_UNREACHABLE("bad condition code");
}

CondCode rtl::swapOperands(CondCode C) {
  switch (C) {
  case CondCode::Eq:
    return CondCode::Eq;
  case CondCode::Ne:
    return CondCode::Ne;
  case CondCode::Lt:
    return CondCode::Gt;
  case CondCode::Le:
    return CondCode::Ge;
  case CondCode::Gt:
    return CondCode::Lt;
  case CondCode::Ge:
    return CondCode::Le;
  }
  CODEREP_UNREACHABLE("bad condition code");
}

Insn Insn::move(Operand Dst, Operand Src) {
  Insn I(Opcode::Move);
  I.Dst = Dst;
  I.Src1 = Src;
  return I;
}

Insn Insn::binary(Opcode O, Operand Dst, Operand A, Operand B) {
  Insn I(O);
  CODEREP_CHECK(I.isBinaryOp(), "binary() requires a binary opcode");
  I.Dst = Dst;
  I.Src1 = A;
  I.Src2 = B;
  return I;
}

Insn Insn::unary(Opcode O, Operand Dst, Operand A) {
  Insn I(O);
  CODEREP_CHECK(I.isUnaryOp(), "unary() requires a unary opcode");
  I.Dst = Dst;
  I.Src1 = A;
  return I;
}

Insn Insn::lea(Operand Dst, Operand Mem) {
  Insn I(Opcode::Lea);
  CODEREP_CHECK(Dst.isReg() && Mem.isMem(), "lea needs reg <- mem operands");
  I.Dst = Dst;
  I.Src1 = Mem;
  return I;
}

Insn Insn::compare(Operand A, Operand B) {
  Insn I(Opcode::Compare);
  I.Dst = Operand::reg(RegCC);
  I.Src1 = A;
  I.Src2 = B;
  return I;
}

Insn Insn::condJump(CondCode C, int Label) {
  Insn I(Opcode::CondJump);
  I.Cond = C;
  I.Target = Label;
  return I;
}

Insn Insn::jump(int Label) {
  Insn I(Opcode::Jump);
  I.Target = Label;
  return I;
}

Insn Insn::switchJump(Operand Index, std::vector<int> Labels) {
  Insn I(Opcode::SwitchJump);
  I.Src1 = Index;
  I.Table = std::move(Labels);
  return I;
}

Insn Insn::call(int Callee) {
  Insn I(Opcode::Call);
  I.Callee = Callee;
  return I;
}

Insn Insn::ret() { return Insn(Opcode::Return); }

int Insn::definedReg() const { return detail::definedRegOf(*this); }

void Insn::appendUsedRegs(std::vector<int> &Out) const {
  detail::appendUsedRegsOf(*this, Out);
}

bool Insn::writesMem() const { return detail::writesMemOf(*this); }

bool Insn::readsMem() const { return detail::readsMemOf(*this); }

bool Insn::hasSideEffects() const { return detail::hasSideEffectsOf(*this); }

void Insn::renameUses(int From, int To) {
  detail::renameUsesOf(*this, From, To);
}

void Insn::renameDef(int From, int To) {
  detail::renameDefOf(*this, From, To);
}

bool rtl::operator==(const Insn &A, const Insn &B) {
  return A.Op == B.Op && A.Cond == B.Cond && A.Dst == B.Dst &&
         A.Src1 == B.Src1 && A.Src2 == B.Src2 && A.Target == B.Target &&
         A.Table == B.Table && A.Callee == B.Callee;
}

// The printer appends into a caller-owned string: no temporary per operand
// or RTL. The cache key, the server's responses and the oracle's identity
// check are built from this text, so its bytes are pinned by RtlTest.

static void appendReg(std::string &Out, int R) {
  switch (R) {
  case RegSP:
    Out += "sp";
    return;
  case RegFP:
    Out += "fp";
    return;
  case RegRV:
    Out += "rv";
    return;
  case RegCC:
    Out += "NZ";
    return;
  default:
    break;
  }
  if (isVirtualReg(R)) {
    Out += "v[";
    appendInt(Out, R - FirstVirtual);
  } else {
    Out += "r[";
    appendInt(Out, R);
  }
  Out += ']';
}

static void appendOperand(std::string &Out, const Operand &O) {
  switch (O.Kind) {
  case OperandKind::None:
    Out += "<none>";
    return;
  case OperandKind::Reg:
    appendReg(Out, O.Base);
    return;
  case OperandKind::Imm:
    appendInt(Out, O.Disp);
    return;
  case OperandKind::Mem: {
    Out += O.Size == 1 ? "B[" : "L[";
    bool Empty = true;
    if (O.Sym >= 0) {
      Out += 'g';
      appendInt(Out, O.Sym);
      Out += '.';
      Empty = false;
    }
    if (O.Base >= 0) {
      if (!Empty)
        Out += '+';
      appendReg(Out, O.Base);
      Empty = false;
    }
    // An index always carries its '+', even with nothing before it.
    if (O.Index >= 0) {
      Out += '+';
      appendReg(Out, O.Index);
      if (O.Scale != 1) {
        Out += '*';
        appendInt(Out, O.Scale);
      }
      Empty = false;
    }
    // The displacement is signed ("%+lld"), and an empty address prints
    // "+0".
    if (O.Disp != 0 || Empty) {
      if (O.Disp >= 0)
        Out += '+';
      appendInt(Out, O.Disp);
    }
    Out += ']';
    return;
  }
  }
  CODEREP_UNREACHABLE("bad operand kind");
}

std::string rtl::toString(const Operand &O) {
  std::string Out;
  appendOperand(Out, O);
  return Out;
}

static const char *binaryOpSymbol(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "+";
  case Opcode::Sub:
    return "-";
  case Opcode::Mul:
    return "*";
  case Opcode::Div:
    return "/";
  case Opcode::Rem:
    return "%";
  case Opcode::And:
    return "&";
  case Opcode::Or:
    return "|";
  case Opcode::Xor:
    return "^";
  case Opcode::Shl:
    return "<<";
  case Opcode::Shr:
    return ">>";
  default:
    CODEREP_UNREACHABLE("not a binary op");
  }
}

static const char *condSymbol(CondCode C) {
  switch (C) {
  case CondCode::Eq:
    return "==0";
  case CondCode::Ne:
    return "!=0";
  case CondCode::Lt:
    return "<0";
  case CondCode::Le:
    return "<=0";
  case CondCode::Gt:
    return ">0";
  case CondCode::Ge:
    return ">=0";
  }
  CODEREP_UNREACHABLE("bad condition code");
}

/// One definition for both RTL representations: it reads only the fields
/// Insn and ConstInsnView share, and iterates the switch table in place.
template <class InsnT>
static void appendInsnText(std::string &Out, const InsnT &I) {
  // Dst <Infix> Src1 ';'
  auto assign = [&](const char *Infix) {
    appendOperand(Out, I.Dst);
    Out += Infix;
    appendOperand(Out, I.Src1);
    Out += ';';
  };
  switch (I.Op) {
  case Opcode::Move:
    assign("=");
    return;
  case Opcode::Neg:
    assign("=-");
    return;
  case Opcode::Not:
    assign("=~");
    return;
  case Opcode::Lea:
    assign("=&");
    return;
  case Opcode::Compare:
    Out += "NZ=";
    appendOperand(Out, I.Src1);
    Out += '?';
    appendOperand(Out, I.Src2);
    Out += ';';
    return;
  case Opcode::CondJump:
    Out += "PC=NZ";
    Out += condSymbol(I.Cond);
    Out += ",L";
    appendInt(Out, I.Target);
    Out += ';';
    return;
  case Opcode::Jump:
    Out += "PC=L";
    appendInt(Out, I.Target);
    Out += ';';
    return;
  case Opcode::SwitchJump: {
    Out += "PC=TAB[";
    appendOperand(Out, I.Src1);
    Out += "]{";
    bool First = true;
    for (int Label : I.Table) {
      Out += First ? "L" : ",L";
      appendInt(Out, Label);
      First = false;
    }
    Out += "};";
    return;
  }
  case Opcode::Call:
    Out += "CALL f";
    appendInt(Out, I.Callee);
    Out += ';';
    return;
  case Opcode::Return:
    Out += "PC=RT;";
    return;
  case Opcode::Nop:
    Out += "NOP;";
    return;
  default:
    appendOperand(Out, I.Dst);
    Out += '=';
    appendOperand(Out, I.Src1);
    Out += binaryOpSymbol(I.Op);
    appendOperand(Out, I.Src2);
    Out += ';';
    return;
  }
}

void rtl::appendText(std::string &Out, const Insn &I) {
  appendInsnText(Out, I);
}

void rtl::appendText(std::string &Out, const ConstInsnView &I) {
  appendInsnText(Out, I);
}

std::string rtl::toString(const Insn &I) {
  std::string Out;
  appendText(Out, I);
  return Out;
}
