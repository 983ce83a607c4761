//===- ShortestPaths.cpp - All-pairs shortest paths over the CFG -------------===//

#include "replicate/ShortestPaths.h"

#include "obs/ScopedTimer.h"
#include "support/Check.h"

#include <algorithm>
#include <queue>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::replicate;

ShortestPaths::ShortestPaths(const Function &F, Strategy S,
                             obs::TraceSink *Trace)
    : Strat(S), Trace(Trace) {
  N = F.size();
  BlockCost.resize(N);
  SuccBegin.assign(N + 1, 0);
  Rows.resize(N);

  // Visits every transition the replication planner may traverse:
  // self-reflexive transitions are excluded, and so are all transitions
  // out of indirect jumps (such blocks may still *end* a sequence,
  // Section 6).
  auto forEachEdge = [&F](int U, auto &&Visit) {
    auto T = F.block(U)->terminator();
    if (T && T->Op == rtl::Opcode::SwitchJump)
      return;
    F.forEachSuccessor(U, [&](int V) {
      if (V != U)
        Visit(V);
    });
  };

  // Build the CSR adjacency in two sweeps: count, then fill.
  for (int U = 0; U < N; ++U) {
    const BasicBlock *B = F.block(U);
    BlockCost[U] = B->rtlCount();
    if (B->terminator() && B->terminator()->Op == rtl::Opcode::Return)
      ReturnBlocks.push_back(U);
    if (B->terminator() && B->terminator()->Op == rtl::Opcode::SwitchJump)
      IndirectBlocks.push_back(U);
    forEachEdge(U, [&](int) { ++SuccBegin[U + 1]; });
  }
  for (int U = 0; U < N; ++U)
    SuccBegin[U + 1] += SuccBegin[U];
  SuccData.resize(SuccBegin[N]);
  for (int U = 0; U < N; ++U) {
    int32_t Cursor = SuccBegin[U];
    forEachEdge(U, [&](int V) { SuccData[Cursor++] = static_cast<int32_t>(V); });
  }

  if (Strat == Strategy::Dense)
    computeAllDense();
}

ShortestPaths::Row &ShortestPaths::materializeRow(int From) const {
  Row &R = Rows[From];
  CODEREP_CHECK(!R.Dist, "row materialized twice");
  R.Dist = RowArena.allocate<int64_t>(N);
  R.Parent = RowArena.allocate<int32_t>(N);
  R.Hops = RowArena.allocate<int32_t>(N);
  for (int V = 0; V < N; ++V) {
    R.Dist[V] = Inf;
    R.Parent[V] = -1;
    R.Hops[V] = 0;
  }
  ++NumRowsComputed;
  return R;
}

const ShortestPaths::Row &ShortestPaths::row(int From) const {
  CODEREP_CHECK(From >= 0 && From < N, "shortest-path source out of range");
  if (!Rows[From].Dist) {
    CODEREP_CHECK(Strat == Strategy::Lazy, "dense matrix missing a row");
    computeRowDijkstra(From);
  }
  return Rows[From];
}

/// Single-source shortest paths from \p From. Edge U->V costs BlockCost[U],
/// so Dist[V] is the RTL total of all blocks on the path excluding V -
/// matching the Floyd-Warshall formulation exactly. The diagonal stays Inf:
/// like the dense recurrence (which never updates Dist[U][U]), a cycle back
/// to the source is not a "path" the replication planner can use.
void ShortestPaths::computeRowDijkstra(int From) const {
  Row &R = materializeRow(From);
  if (Trace)
    Trace->metrics().add("sp.rows_computed", 1);

  // (dist, node) min-heap; ties pop the smallest block index, which makes
  // the chosen representative among equal-cost paths deterministic.
  using HeapEntry = std::pair<int64_t, int32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      Heap;

  // The source's own distance is 0 while relaxing; presented as Inf after.
  R.Dist[From] = 0;
  Heap.push({0, From});
  while (!Heap.empty()) {
    auto [D, U] = Heap.top();
    Heap.pop();
    if (D != R.Dist[U])
      continue; // stale heap entry
    int64_t Out = D + BlockCost[U];
    for (int32_t E = SuccBegin[U]; E < SuccBegin[U + 1]; ++E) {
      int32_t V = SuccData[E];
      if (V == From)
        continue; // keep the diagonal Inf, as Floyd-Warshall does
      if (Out < R.Dist[V]) {
        R.Dist[V] = Out;
        R.Parent[V] = U;
        R.Hops[V] = R.Hops[U] + 1;
        Heap.push({Out, V});
      }
    }
  }
  R.Dist[From] = Inf;
  R.Parent[From] = -1;
  R.Hops[From] = 0;
}

/// The paper's Warshall/Floyd recurrence, kept verbatim as the cost
/// oracle. Parent/Hops track the predecessor of V on the U->V path so path
/// reconstruction works as for the lazy rows (though ties between
/// equal-cost paths may resolve differently).
void ShortestPaths::computeAllDense() const {
  obs::ScopedTimer Span(Trace, "sp dense rebuild");
  if (Trace) {
    Trace->metrics().add("sp.dense_rebuilds", 1);
    Trace->metrics().add("sp.rows_computed", N);
  }
  for (int U = 0; U < N; ++U)
    materializeRow(U);

  for (int U = 0; U < N; ++U) {
    Row &R = Rows[U];
    for (int32_t E = SuccBegin[U]; E < SuccBegin[U + 1]; ++E) {
      int32_t V = SuccData[E];
      // Edge weight: the RTLs of the source block (what a replication
      // passing through U copies before reaching V).
      if (BlockCost[U] < R.Dist[V]) {
        R.Dist[V] = BlockCost[U];
        R.Parent[V] = U;
        R.Hops[V] = 1;
      }
    }
  }

  for (int K = 0; K < N; ++K) {
    const Row &RK = Rows[K];
    for (int U = 0; U < N; ++U) {
      Row &RU = Rows[U];
      if (RU.Dist[K] == Inf)
        continue;
      for (int V = 0; V < N; ++V) {
        if (U == V || RK.Dist[V] == Inf)
          continue;
        int64_t Through = RU.Dist[K] + RK.Dist[V];
        if (Through < RU.Dist[V]) {
          RU.Dist[V] = Through;
          RU.Parent[V] = RK.Parent[V];
          RU.Hops[V] = RU.Hops[K] + RK.Hops[V];
        }
      }
    }
  }
}

std::vector<int> ShortestPaths::path(int From, int To) const {
  std::vector<int> Out;
  const Row &R = row(From);
  if (From == To || R.Dist[To] >= Inf)
    return Out;
  // Hops[To] counts the blocks on the path (From included, To excluded):
  // exact under Dijkstra, where parent and hop count are finalized
  // together, so the reconstruction allocates once. (Under Floyd-Warshall
  // a later improvement of an inner chain can shorten the walk, so the
  // hop count is only a capacity hint there.)
  Out.reserve(static_cast<size_t>(R.Hops[To]));
  int Cur = R.Parent[To];
  for (;;) {
    CODEREP_CHECK(Cur >= 0, "broken shortest-path predecessor chain");
    CODEREP_CHECK(Out.size() < static_cast<size_t>(N), "shortest-path cycle");
    Out.push_back(Cur);
    if (Cur == From)
      break;
    Cur = R.Parent[Cur];
  }
  std::reverse(Out.begin(), Out.end());
  return Out;
}

std::vector<int>
ShortestPaths::cheapestEndingAt(int From,
                                const std::vector<int> &Endings) const {
  const Row &R = row(From);
  int64_t BestCost = Inf;
  int BestBlock = -1;
  for (int E : Endings) {
    int64_t C = (E == From ? 0 : R.Dist[E]) + BlockCost[E];
    if (C < BestCost) {
      BestCost = C;
      BestBlock = E;
    }
  }
  std::vector<int> Out;
  if (BestBlock < 0)
    return Out;
  if (BestBlock == From) {
    Out.push_back(From);
    return Out;
  }
  Out = path(From, BestBlock);
  Out.push_back(BestBlock);
  return Out;
}

std::vector<int> ShortestPaths::cheapestReturnPath(int From) const {
  return cheapestEndingAt(From, ReturnBlocks);
}

std::vector<int> ShortestPaths::cheapestIndirectPath(int From) const {
  return cheapestEndingAt(From, IndirectBlocks);
}

uint64_t ShortestPaths::fingerprint(const Function &F) {
  // FNV-1a over everything the matrix depends on.
  uint64_t H = 1469598103934665603ull;
  auto mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(F.size()));
  for (int B = 0; B < F.size(); ++B) {
    const BasicBlock *Blk = F.block(B);
    mix(static_cast<uint64_t>(Blk->Label));
    mix(static_cast<uint64_t>(Blk->rtlCount()));
    auto T = Blk->terminator();
    if (!T) {
      mix(0xff);
      continue;
    }
    mix(static_cast<uint64_t>(T->Op));
    switch (T->Op) {
    case rtl::Opcode::Jump:
    case rtl::Opcode::CondJump:
      mix(static_cast<uint64_t>(T->Target));
      break;
    case rtl::Opcode::SwitchJump:
      for (int Label : T->Table)
        mix(static_cast<uint64_t>(Label));
      break;
    default:
      break;
    }
  }
  return H;
}

ShortestPaths &ShortestPathsCache::get(const Function &F) {
  uint64_t FP = ShortestPaths::fingerprint(F);
  if (SP && FP == Fingerprint) {
    ++Hits;
    if (Trace)
      Trace->metrics().add("sp.cache.hits", 1);
    return *SP;
  }
  ++Misses;
  if (Trace)
    Trace->metrics().add("sp.cache.misses", 1);
  Fingerprint = FP;
  obs::ScopedTimer Span(Trace, "shortest-paths rebuild");
  SP = std::make_unique<ShortestPaths>(F, ShortestPaths::Strategy::Lazy,
                                       Trace);
  return *SP;
}
