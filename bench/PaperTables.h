//===- PaperTables.h - Every table and figure of the evaluation -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every table and figure EXPERIMENTS.md reports, rendered as one text.
///
/// First the motivating listings, each a small serial compile or flow
/// graph: Table 1's mid-loop exit and Table 2's if-then-else on the
/// 68020, then Figure 1 (step-3 whole-loop inclusion) and Figure 2
/// (step-5 retargeting) on hand-built flow graphs. Then the suite-wide
/// numbers - Figure 3's pipeline activity, Tables 4, 5 and 6, the Section
/// 5.2 SPARC statistics and the two ablations - from one measurement
/// batch.
///
/// The batch is 196 compile+runs, each simulating the paper's eight cache
/// configurations: 14 programs x {SPARC, 68020} x {SIMPLE, LOOPS, JUMPS},
/// then 14 programs x 8 SPARC JUMPS variants (favor-returns, favor-loops,
/// Section 6 indirect endings, sequence caps 4/8/16/32/64 RTLs). The
/// default JUMPS runs double as the "shortest" and "unlimited" ablation
/// rows and as Figure 3's JUMPS rows. tests/golden/paper_tables.txt pins
/// the rendered text, so any change that moves a counted quantity shows up
/// as a diff there.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_BENCH_PAPERTABLES_H
#define CODEREP_BENCH_PAPERTABLES_H

#include "Suite.h"

#include <memory>
#include <string>

namespace coderep::bench {

/// Renders Tables 1/2 and Figures 1/2, then measures the batch described
/// above in one measureAll() call and renders Figure 3, Tables 4/5/6,
/// Section 5.2 and both ablations, in that order. \p Threads and \p Trace
/// are measureAll()'s; the text does not depend on them.
std::string paperTables(unsigned Threads = 0, obs::TraceSink *Trace = nullptr);

/// Figure 2's flow graph, two natural loops sharing header 1:
///   1 (loop header) -> 2 (fall), exit to 4 (branch)
///   2 -> 1 (cond branch back), falls to 3
///   3 -> 1 (the unconditional back jump to replicate)
///   4: return.
/// Replicating the jump 3 -> 1 copies the header, and step 5 retargets
/// block 2's branch into the copy.
std::unique_ptr<cfg::Function> buildFigure2();

} // namespace coderep::bench

#endif // CODEREP_BENCH_PAPERTABLES_H
