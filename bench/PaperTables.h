//===- PaperTables.h - Every suite-wide number of the evaluation -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numbers EXPERIMENTS.md reports over the whole suite - Figure 3's
/// pipeline activity, Tables 4, 5 and 6, the Section 5.2 SPARC statistics
/// and the two ablations - computed from one measurement batch.
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

#include <string>

namespace coderep::bench {

/// Measures the batch described above in one measureAll() call and renders
/// Figure 3, Tables 4/5/6, Section 5.2 and both ablations, in that order.
/// \p Threads and \p Trace are measureAll()'s; the text does not depend
/// on them.
std::string paperTables(unsigned Threads = 0, obs::TraceSink *Trace = nullptr);

} // namespace coderep::bench

#endif // CODEREP_BENCH_PAPERTABLES_H
