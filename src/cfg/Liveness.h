//===- Liveness.h - Register liveness dataflow analysis ---------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward may-liveness over all registers (physical and virtual), used by
/// dead variable elimination, instruction selection and the coloring
/// register allocator. RegSP and RegFP are treated as live everywhere: the
/// stack discipline is not visible to the dataflow equations.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CFG_LIVENESS_H
#define CODEREP_CFG_LIVENESS_H

#include "cfg/Function.h"
#include "support/BitVec.h"

#include <vector>

namespace coderep::cfg {

class FlatCfg;

/// Maps register numbers to dense slots: physical registers occupy
/// [0, 64), virtual registers follow.
class RegUniverse {
public:
  explicit RegUniverse(const Function &F)
      : NumSlots(64 + static_cast<size_t>(F.vregLimit() - rtl::FirstVirtual)) {
  }

  size_t size() const { return NumSlots; }

  size_t slot(int Reg) const {
    return Reg < rtl::FirstVirtual
               ? static_cast<size_t>(Reg)
               : 64 + static_cast<size_t>(Reg - rtl::FirstVirtual);
  }

  int reg(size_t Slot) const {
    return Slot < 64 ? static_cast<int>(Slot)
                     : rtl::FirstVirtual + static_cast<int>(Slot - 64);
  }

private:
  size_t NumSlots;
};

/// Per-block live-in/live-out register sets.
class Liveness {
public:
  /// Solves the equations over \p Flat, a CSR snapshot of \p F's current
  /// flow graph (AnalysisManager shares one FlatCfg build across
  /// analyses).
  Liveness(const Function &F, const FlatCfg &Flat);

  const RegUniverse &universe() const { return Universe; }
  const BitVec &liveIn(int Block) const { return LiveIn[Block]; }
  const BitVec &liveOut(int Block) const { return LiveOut[Block]; }

private:
  RegUniverse Universe;
  std::vector<BitVec> LiveIn;
  std::vector<BitVec> LiveOut;
};

} // namespace coderep::cfg

#endif // CODEREP_CFG_LIVENESS_H
