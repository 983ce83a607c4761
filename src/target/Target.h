//===- Target.h - Machine descriptions --------------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two machine descriptions of the paper's Section 5: a Motorola
/// 68020-like CISC (memory operands in ALU RTLs, scaled-index addressing,
/// memory-to-memory moves) and a Sun SPARC-like RISC (load/store
/// architecture, simm13 immediates, delay slots). A Target answers one
/// question - is this RTL a single instruction on the machine? - and
/// provides legalizeFunction(), which rewrites naive front-end RTLs into
/// legal ones, mirroring how VPO kept RTLs machine-legal at all times.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_TARGET_TARGET_H
#define CODEREP_TARGET_TARGET_H

#include "cfg/Function.h"
#include "support/NameTable.h"

#include <memory>

namespace coderep::target {

/// The paper's two measured machines.
enum class TargetKind { M68, Sparc };

/// Each machine's lowercase name, as `--target=` and the server protocol
/// spell it.
inline constexpr support::NamedValue<TargetKind> TargetNames[] = {
    {"m68", TargetKind::M68}, {"sparc", TargetKind::Sparc}};

/// \p TK's entry in TargetNames.
inline const char *targetName(TargetKind TK) {
  return support::nameOf(TargetNames, TK);
}

/// A machine description.
class Target {
public:
  virtual ~Target();

  /// Human-readable name, as the paper's tables print it.
  virtual const char *name() const = 0;

  virtual TargetKind kind() const = 0;

  /// True if taken branches architecturally execute the following
  /// instruction (SPARC); drives the delay-slot filling pass.
  virtual bool hasDelaySlots() const = 0;

  /// Registers available to the coloring register allocator.
  virtual int numAllocatableRegs() const = 0;

  /// True if \p I is one instruction on this machine. Mem operands must
  /// also satisfy isLegalAddress.
  virtual bool isLegal(const rtl::Insn &I) const = 0;

  /// True if the machine has an addressing mode computing \p M's address.
  /// \p M must be a Mem operand.
  virtual bool isLegalAddress(const rtl::Operand &M) const = 0;

  /// Rewrites every RTL of \p F into an equivalent sequence of legal RTLs
  /// (loads/stores split out, addresses materialized, immediates ranged).
  void legalizeFunction(cfg::Function &F) const;
};

/// Creates the machine description for \p K.
std::unique_ptr<Target> createTarget(TargetKind K);

} // namespace coderep::target

#endif // CODEREP_TARGET_TARGET_H
