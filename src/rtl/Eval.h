//===- Eval.h - RTL word semantics ------------------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of what an RTL computes on 32-bit machine words:
/// every binary ALU op, Neg and Not, the value a Compare leaves in CC, and
/// whether a CondCode holds for it. The EASE machine (ease::Machine)
/// executes through these functions, and constant folding and CSE's
/// constant propagation fold through them, so a folded result is exactly
/// what execution computes.
///
/// Operands are the low 32 bits of their argument; results wrap to 32
/// bits, shift counts are masked to 5 bits and Shr is arithmetic. The two
/// operations a real target faults on - division or remainder by zero, and
/// INT32_MIN divided or remaindered by -1 - yield a trap instead of a
/// value. The folders leave such an RTL in place, so it traps at run time
/// exactly as the unoptimized program does.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_RTL_EVAL_H
#define CODEREP_RTL_EVAL_H

#include "rtl/Insn.h"
#include "support/Check.h"

#include <cstdint>

namespace coderep::rtl {

/// Why a run of RTLs ends. Every runtime fault of the machine is a defined,
/// observable trap - never host UB - so differential fuzzing can compare
/// trap behavior across optimization levels. evalBinary() raises DivByZero
/// and Overflow; the machine raises the others.
enum class Trap {
  None,          ///< main returned or exit() was called
  OutOfBounds,   ///< memory access outside the data segment
  DivByZero,
  StepLimit,
  BadProgram,    ///< malformed control flow or missing main
  Overflow,      ///< signed division overflow (INT32_MIN / -1)
};

/// One ALU result: a word, or the trap the machine raises instead.
struct AluResult {
  int32_t Value = 0;
  Trap Fault = Trap::None;

  bool ok() const { return Fault == Trap::None; }
};

/// Dst <- A op B for a binary ALU opcode (Add through Shr).
inline AluResult evalBinary(Opcode Op, int64_t A, int64_t B) {
  const int32_t X = static_cast<int32_t>(A);
  const int32_t Y = static_cast<int32_t>(B);
  const uint32_t UX = static_cast<uint32_t>(X);
  const uint32_t UY = static_cast<uint32_t>(Y);
  switch (Op) {
  case Opcode::Add:
    return {static_cast<int32_t>(UX + UY)};
  case Opcode::Sub:
    return {static_cast<int32_t>(UX - UY)};
  case Opcode::Mul:
    return {static_cast<int32_t>(UX * UY)};
  case Opcode::Div:
  case Opcode::Rem:
    if (Y == 0)
      return {0, Trap::DivByZero};
    // The one 32-bit quotient that does not fit in 32 bits. Real targets
    // fault here (SIGFPE on x86); an explicit trap keeps every machine
    // fault a defined observable.
    if (X == INT32_MIN && Y == -1)
      return {0, Trap::Overflow};
    return {Op == Opcode::Div ? X / Y : X % Y};
  case Opcode::And:
    return {X & Y};
  case Opcode::Or:
    return {X | Y};
  case Opcode::Xor:
    return {X ^ Y};
  case Opcode::Shl:
    return {static_cast<int32_t>(UX << (UY & 31))};
  case Opcode::Shr:
    return {X >> (UY & 31)};
  default:
    CODEREP_UNREACHABLE("not a binary ALU opcode");
  }
}

/// Dst <- op A for Neg and Not; neither faults.
inline int32_t evalUnary(Opcode Op, int64_t A) {
  const uint32_t U = static_cast<uint32_t>(A);
  return static_cast<int32_t>(Op == Opcode::Neg ? 0u - U : ~U);
}

/// The value a Compare of \p A with \p B leaves in CC: the exact
/// difference of the two words, whose sign orders them.
inline int64_t compareValue(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<int32_t>(A)) -
         static_cast<int32_t>(B);
}

/// True if \p Cond holds for the CC value \p CC.
inline bool condHolds(CondCode Cond, int64_t CC) {
  switch (Cond) {
  case CondCode::Eq:
    return CC == 0;
  case CondCode::Ne:
    return CC != 0;
  case CondCode::Lt:
    return CC < 0;
  case CondCode::Le:
    return CC <= 0;
  case CondCode::Gt:
    return CC > 0;
  case CondCode::Ge:
    return CC >= 0;
  }
  CODEREP_UNREACHABLE("bad condition code");
}

} // namespace coderep::rtl

#endif // CODEREP_RTL_EVAL_H
