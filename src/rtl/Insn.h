//===- Insn.h - RTL instructions -------------------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A machine-level RTL instruction. Comparisons communicate with conditional
/// jumps through the condition-code pseudo register RegCC, exactly like the
/// "NZ=d[0]?L[_n]; PC=NZ>=0,L16" pairs in the paper's 68020 examples, so
/// reversing a conditional branch is a pure flip of its condition.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_RTL_INSN_H
#define CODEREP_RTL_INSN_H

#include "rtl/Operand.h"

#include <vector>

namespace coderep::rtl {

/// RTL opcodes. Every executed RTL counts as one machine instruction in the
/// measurements (4 bytes of instruction space for the cache simulation).
enum class Opcode : uint8_t {
  Move,    ///< Dst <- Src1
  Add,     ///< Dst <- Src1 + Src2 (and the other binary ALU ops below)
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Neg,     ///< Dst <- -Src1
  Not,     ///< Dst <- ~Src1
  Lea,     ///< Dst <- effective address of the memory operand Src1
  Compare, ///< CC <- compare(Src1, Src2); Dst is implicitly RegCC
  CondJump,///< if CC satisfies CondCode: PC <- Target
  Jump,    ///< PC <- Target (the unconditional jumps the paper eliminates)
  SwitchJump, ///< PC <- Table[Src1]; indirect jump through a jump table
  Call,    ///< call Callee; args are in memory at SP; result in RegRV
  Return,  ///< PC <- RT; return value (if any) already in RegRV
  Nop,     ///< pipeline filler emitted for unfillable SPARC delay slots
};

/// Branch conditions relative to the most recent Compare.
enum class CondCode : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// Returns the logically negated condition (used when a replicated branch
/// must be reversed to fall through, JUMPS step 4).
CondCode negate(CondCode C);

/// Returns the condition with operand order swapped (a ? b -> b ? a).
CondCode swapOperands(CondCode C);

/// Callee identifiers < 0 denote runtime intrinsics (the "library routines"
/// the paper could not measure); >= 0 indexes Program::Functions.
enum Intrinsic : int {
  IntrinsicGetchar = -1,
  IntrinsicPutchar = -2,
  IntrinsicPuts = -3,
  IntrinsicPrintf = -4,
  IntrinsicExit = -5,
  IntrinsicStrlen = -6,
  IntrinsicStrcmp = -7,
  IntrinsicStrcpy = -8,
  IntrinsicAbs = -9,
  IntrinsicAtoi = -10,
};

/// One RTL.
struct Insn {
  Opcode Op = Opcode::Nop;
  CondCode Cond = CondCode::Eq; ///< CondJump only
  Operand Dst;                  ///< result operand (register or memory)
  Operand Src1;
  Operand Src2;
  int Target = -1;              ///< label id for Jump/CondJump
  std::vector<int> Table;       ///< label ids for SwitchJump
  int Callee = 0;               ///< Call only; see Intrinsic

  Insn() = default;
  explicit Insn(Opcode O) : Op(O) {}

  /// Builds Dst <- Src.
  static Insn move(Operand Dst, Operand Src);
  /// Builds Dst <- A op B.
  static Insn binary(Opcode O, Operand Dst, Operand A, Operand B);
  /// Builds Dst <- op A.
  static Insn unary(Opcode O, Operand Dst, Operand A);
  /// Builds Dst <- &Mem (address formation; no memory access).
  static Insn lea(Operand Dst, Operand Mem);
  /// Builds CC <- compare(A, B).
  static Insn compare(Operand A, Operand B);
  /// Builds "if C: goto L".
  static Insn condJump(CondCode C, int Label);
  /// Builds "goto L".
  static Insn jump(int Label);
  /// Builds an indirect jump "goto Table[IndexReg]".
  static Insn switchJump(Operand Index, std::vector<int> Labels);
  /// Builds a call.
  static Insn call(int Callee);
  /// Builds a return.
  static Insn ret();

  bool isBinaryOp() const {
    return Op >= Opcode::Add && Op <= Opcode::Shr;
  }
  bool isUnaryOp() const { return Op == Opcode::Neg || Op == Opcode::Not; }

  /// True for instructions that unconditionally leave the block.
  bool isUnconditionalTransfer() const {
    return Op == Opcode::Jump || Op == Opcode::SwitchJump ||
           Op == Opcode::Return;
  }

  /// True for any control transfer, including conditional branches.
  bool isTransfer() const {
    return Op == Opcode::CondJump || isUnconditionalTransfer();
  }

  /// Register defined by this RTL, or -1. Compare defines RegCC; Call
  /// defines RegRV. Memory destinations define no register.
  int definedReg() const;

  /// Appends every register read by this RTL (including memory base/index
  /// registers and implicit uses: CondJump reads RegCC, Call reads RegSP,
  /// Return reads RegRV/RegSP/RegFP, SwitchJump reads its index).
  void appendUsedRegs(std::vector<int> &Out) const;

  /// True if the RTL writes memory.
  bool writesMem() const;

  /// True if the RTL reads memory.
  bool readsMem() const;

  /// True if the RTL has an observable effect beyond defining registers
  /// (stores, calls, transfers) and therefore must not be deleted by dead
  /// variable elimination.
  bool hasSideEffects() const;

  /// Replaces every use of register \p From with register \p To (does not
  /// touch the defined register in Dst position unless Dst is a memory
  /// operand using \p From for addressing).
  void renameUses(int From, int To);

  /// Replaces the defined register \p From with \p To.
  void renameDef(int From, int To);

};

bool operator==(const Insn &A, const Insn &B);

class ConstInsnView;

/// Appends \p I in the paper's notation to \p Out, e.g. "r[5]=r[5]+1;" or
/// "PC=NZ<0,L16;".
void appendText(std::string &Out, const Insn &I);

/// Appends an arena-held RTL, read in place through its view, exactly as
/// its materialized Insn would print.
void appendText(std::string &Out, const ConstInsnView &I);

/// Renders \p I as appendText() does.
std::string toString(const Insn &I);

} // namespace coderep::rtl

#endif // CODEREP_RTL_INSN_H
