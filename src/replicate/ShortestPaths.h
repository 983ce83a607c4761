//===- ShortestPaths.h - All-pairs shortest paths over the CFG --*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Step 1 of the paper's JUMPS algorithm: the all-pairs shortest-path
/// matrix over the control-flow graph, where the length of a path is the
/// number of RTLs in the traversed blocks (the code that would have to be
/// replicated). Self-transitions are excluded, as are all transitions out
/// of indirect jumps ("the replication of indirect jumps has not yet been
/// implemented").
///
/// The paper computes the matrix with the Warshall/Floyd O(n^3) recurrence
/// ([Wa62], [Fl62]); that remains available as Strategy::Dense and as the
/// oracle the tests compare against. The default Strategy::Lazy stores the
/// matrix as flat arena-backed rows and fills a row only when it is first
/// queried, with a per-source Dijkstra over the block-weighted graph -
/// O(E log V) per row. JUMPS only ever queries rows whose source is the
/// target of an unconditional jump, so most rows are never materialized.
///
/// A ShortestPathsCache carries one instance across replication rounds and
/// fixpoint iterations, revalidating it against a structural fingerprint
/// of the function (see fingerprint()): when the passes that ran between
/// two replication attempts left the flow graph and block sizes untouched,
/// the cached rows - including everything already computed lazily - are
/// reused instead of being recomputed.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_REPLICATE_SHORTESTPATHS_H
#define CODEREP_REPLICATE_SHORTESTPATHS_H

#include "cfg/Function.h"
#include "obs/Trace.h"
#include "support/Arena.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace coderep::replicate {

/// All-pairs shortest paths in RTL counts.
class ShortestPaths {
public:
  static constexpr int64_t Inf = INT64_MAX / 4;

  /// How the matrix is materialized. Both strategies produce bit-identical
  /// costs, but may keep different predecessors among equal-cost paths, so
  /// only Lazy drives replication; Dense exists as the tests' cost oracle.
  enum class Strategy {
    Lazy, ///< per-source Dijkstra, row computed on first query
    Dense ///< eager Floyd-Warshall over the full matrix
  };

  /// \p Trace, when non-null, receives named metrics about the matrix
  /// work: rows computed lazily ("sp.rows_computed") and dense rebuilds
  /// ("sp.dense_rebuilds"), plus a span around each dense rebuild.
  explicit ShortestPaths(const cfg::Function &F, Strategy S = Strategy::Lazy,
                         obs::TraceSink *Trace = nullptr);

  /// Cost of the cheapest path from \p From to \p To in RTLs, counting
  /// every traversed block *except* \p To itself (i.e. exactly the RTLs a
  /// replication stopping at \p To would copy). Inf if unreachable. \p From
  /// and \p To must be distinct.
  int64_t cost(int From, int To) const { return row(From).Dist[To]; }

  /// Reconstructs the block sequence of the cheapest path from \p From to
  /// \p To, including \p From but excluding \p To. Empty if unreachable.
  std::vector<int> path(int From, int To) const;

  /// Cheapest "favoring returns" candidate from \p From: the full block
  /// sequence (including the final return block) with minimal total RTL
  /// count. Empty if no return block is reachable.
  std::vector<int> cheapestReturnPath(int From) const;

  /// Cheapest sequence from \p From ending at a block that terminates in
  /// an indirect jump (including that block). The paper's Section 6
  /// proposes this as a third sequence kind: the indirect jump ends the
  /// copy and its jump table need not be duplicated. Empty if none is
  /// reachable.
  std::vector<int> cheapestIndirectPath(int From) const;

  /// Number of blocks the matrix was built over.
  int numBlocks() const { return N; }

  /// Rows materialized so far (== numBlocks() under Strategy::Dense).
  int rowsComputed() const { return NumRowsComputed; }

  /// Structural fingerprint of \p F covering exactly what the matrix
  /// depends on: the block sequence (labels in positional order), each
  /// block's RTL count (the edge weights) and each block's terminator
  /// shape (the edges). In-place rewrites that preserve instruction counts
  /// and control flow do not change it.
  static uint64_t fingerprint(const cfg::Function &F);

private:
  /// One source row of the matrix; arrays of length N in the arena.
  struct Row {
    int64_t *Dist = nullptr;   ///< cost to each block, Inf if unreachable
    int32_t *Parent = nullptr; ///< predecessor block on the path, -1 none
    int32_t *Hops = nullptr;   ///< blocks on the path excluding the target
  };

  const Row &row(int From) const;
  Row &materializeRow(int From) const;
  void computeRowDijkstra(int From) const;
  void computeAllDense() const;
  std::vector<int> cheapestEndingAt(int From,
                                    const std::vector<int> &Endings) const;

  int N = 0;
  Strategy Strat;
  obs::TraceSink *Trace = nullptr;

  // Flat adjacency (CSR layout): successors of U are
  // SuccData[SuccBegin[U] .. SuccBegin[U+1]). Self-edges and edges out of
  // indirect jumps are already excluded.
  std::vector<int32_t> SuccBegin;
  std::vector<int32_t> SuccData;

  std::vector<int64_t> BlockCost;
  std::vector<int> ReturnBlocks;
  std::vector<int> IndirectBlocks;

  mutable Arena RowArena;
  mutable std::vector<Row> Rows;
  mutable int NumRowsComputed = 0;
};

/// Carries a ShortestPaths instance across replication rounds and fixpoint
/// iterations. get() revalidates the cached matrix against the function's
/// structural fingerprint, so a hit is possible only when every cost and
/// edge the matrix encodes is still current - in-place instruction
/// rewrites that do not touch block sizes or terminators keep it valid.
/// The fingerprint walk is O(blocks) per revalidation - noise next to the
/// O(n^3) dense rebuild it replaces. (Function::cfgVersion() alone cannot
/// gate the reuse: passes edit BasicBlock::Insns in place, which changes
/// edges and weights without a block-list mutation.)
class ShortestPathsCache {
public:
  /// Returns a matrix valid for the current state of \p F, reusing the
  /// cached one when the fingerprint proves it is still exact.
  ShortestPaths &get(const cfg::Function &F);

  /// Drops the cached matrix unconditionally.
  void invalidate() { SP.reset(); }

  /// True while a matrix is cached (it may still fail fingerprint
  /// revalidation on the next get()).
  bool holdsMatrix() const { return SP != nullptr; }

  /// Attaches a trace sink: every get() then bumps the "sp.cache.hits" /
  /// "sp.cache.misses" metrics and misses are spanned as rebuilds.
  void setTrace(obs::TraceSink *Sink) { Trace = Sink; }

  int hits() const { return Hits; }
  int misses() const { return Misses; }

private:
  std::unique_ptr<ShortestPaths> SP;
  obs::TraceSink *Trace = nullptr;
  uint64_t Fingerprint = 0;
  int Hits = 0;
  int Misses = 0;
};

} // namespace coderep::replicate

#endif // CODEREP_REPLICATE_SHORTESTPATHS_H
