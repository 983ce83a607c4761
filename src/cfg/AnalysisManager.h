//===- AnalysisManager.h - Cached analyses and preserved sets ---*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-function analysis registry shared by the optimizer's passes and
/// both replication passes: FlatCfg, dominators, natural loops and
/// liveness are computed lazily, cached in one epoch-stamped slot each,
/// and invalidated by what each pass declares it preserved. One FlatCfg
/// build feeds the other three (dominators reuse its CSR arrays, loops
/// reuse both, liveness walks its successor lists).
///
/// Validity is keyed on Function::analysisEpoch(), a counter every
/// mutation path bumps (block-list mutators automatically, in-place RTL
/// edits via Function::noteRtlEdit()). A slot serves every query while its
/// stamp equals the epoch. The protocol, driven by the one helper through
/// which the pipeline runs every pass:
///
///  1. record Before = F.analysisEpoch(), run the pass;
///  2. if it changed the function, call commit(Before, Preserved):
///     - the epoch is bumped if the pass only edited in place (so every
///       change is observed),
///     - a cached entry survives iff its analysis is in the preserved set
///       and it was computed at or after Before (anything older predates
///       edits the pass did not vouch for),
///     - surviving entries are restamped to the new epoch;
///  3. an unchanged pass commits nothing - every entry stays valid.
///
/// Passes that query analyses *between* their own edits use the same
/// primitive mid-run (noteEdit), so e.g. code motion's loop info survives
/// a chain of in-block hoists. Speculative transformations (the JUMPS
/// step-6 rollback) snapshot every slot and restore it - entries and
/// epoch - instead of blanket invalidation.
///
/// Entries are held by shared_ptr: a caller that must keep a result alive
/// across further queries or mutations (a replication round holding its
/// LoopInfo while attempts recompute post-splice loops) takes the *Shared
/// handle; the plain reference accessors are for query-then-read.
///
/// A manager is strictly single-threaded state: the parallel driver builds
/// one per function task, and every query asserts it stayed on the thread
/// that built it.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CFG_ANALYSISMANAGER_H
#define CODEREP_CFG_ANALYSISMANAGER_H

#include "cfg/CfgAnalysis.h"
#include "cfg/FlatCfg.h"
#include "cfg/Function.h"
#include "cfg/Liveness.h"
#include "obs/Trace.h"

#include <cstdint>
#include <memory>
#include <thread>

namespace coderep::cfg {

/// Every analysis the manager caches, in dependency order.
enum class AnalysisID {
  FlatCfg = 0,
  Dominators,
  Loops,
  Liveness,
};
inline constexpr int NumAnalysisIDs = 4;

/// Stable printable name, e.g. "liveness".
const char *analysisName(AnalysisID ID);

/// The set of analyses a pass declares still valid after its changes.
/// Deliberately coarse (a bitmask over AnalysisID) and deliberately
/// conservative in use: a pass claims preservation only with a structural
/// argument, and the cached pipeline is differentially tested against the
/// always-recompute reference.
class PreservedAnalyses {
public:
  /// Nothing survives: the default for structural passes.
  static PreservedAnalyses none() { return PreservedAnalyses(); }

  /// The flow-graph-shape analyses survive, dataflow is dropped: the set
  /// for passes that rewrite or delete plain computations inside blocks
  /// but never touch a transfer, create or remove a block, or retarget an
  /// edge.
  static PreservedAnalyses cfgShape() {
    return none()
        .preserve(AnalysisID::FlatCfg)
        .preserve(AnalysisID::Dominators)
        .preserve(AnalysisID::Loops);
  }

  PreservedAnalyses &preserve(AnalysisID ID) {
    Mask |= bit(ID);
    return *this;
  }
  bool preserved(AnalysisID ID) const { return (Mask & bit(ID)) != 0; }

private:
  static uint8_t bit(AnalysisID ID) {
    return static_cast<uint8_t>(1u << static_cast<int>(ID));
  }
  uint8_t Mask = 0;
};

/// Per-analysis query accounting, indexed by AnalysisID. A hit serves a
/// cached entry; a recompute constructs one (with caching off every query
/// is a recompute); an invalidation drops a live entry in commit() or
/// restore().
struct AnalysisCounters {
  int64_t Hits[NumAnalysisIDs] = {};
  int64_t Recomputes[NumAnalysisIDs] = {};
  int64_t Invalidations[NumAnalysisIDs] = {};

  int64_t totalHits() const;
  int64_t totalRecomputes() const;
  int64_t totalInvalidations() const;
  AnalysisCounters &operator+=(const AnalysisCounters &O);
};

class AnalysisManager {
  /// One cached result and the epoch it was computed at.
  struct Slot {
    std::shared_ptr<const void> Ptr;
    uint64_t Stamp = 0;
  };

public:
  /// \p CacheEnabled = false turns every query into a recompute (the
  /// always-recompute mode of the reference pipeline). \p Trace, when
  /// given with events enabled, receives an "analysis: <name>" span per
  /// recompute.
  explicit AnalysisManager(Function &F, bool CacheEnabled = true,
                           obs::TraceSink *Trace = nullptr);

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  /// Lazy cached queries. References are valid until the next query or
  /// mutation; the *Shared variants pin a result across those.
  const FlatCfg &flatCfg() { return ref<FlatCfg>(AnalysisID::FlatCfg); }
  const Dominators &dominators() {
    return ref<Dominators>(AnalysisID::Dominators);
  }
  const LoopInfo &loops() { return ref<LoopInfo>(AnalysisID::Loops); }
  const Liveness &liveness() { return ref<Liveness>(AnalysisID::Liveness); }

  std::shared_ptr<const Dominators> dominatorsShared() {
    return shared<Dominators>(AnalysisID::Dominators);
  }
  std::shared_ptr<const LoopInfo> loopsShared() {
    return shared<LoopInfo>(AnalysisID::Loops);
  }
  std::shared_ptr<const Liveness> livenessShared() {
    return shared<Liveness>(AnalysisID::Liveness);
  }

  /// The invalidation step after a pass (or one edit burst inside a pass)
  /// changed the function. \p BeforeEpoch is the epoch when the work
  /// started; if the edits were all in-place the epoch has not moved and
  /// is bumped here, so every change is observed. Entries survive per the
  /// protocol described in the file comment.
  void commit(uint64_t BeforeEpoch, const PreservedAnalyses &PA);

  /// Mid-pass form of commit() for an edit burst that just happened:
  /// equivalent to commit(F.analysisEpoch(), PA).
  void noteEdit(const PreservedAnalyses &PA) {
    commit(F.analysisEpoch(), PA);
  }

  /// A restorable image of every slot plus the function's analysis epoch,
  /// taken before a speculative transformation. restore() is only valid
  /// once the function bytes are back to exactly the snapshotted state
  /// (the JUMPS undo-log rollback): it winds the epoch back and reinstates
  /// the snapshotted entries, dropping whatever the attempt computed.
  struct Snapshot {
    uint64_t Epoch = 0;
    Slot Slots[NumAnalysisIDs];
  };
  Snapshot snapshot() const;
  void restore(const Snapshot &S);

  const AnalysisCounters &counters() const { return Stats; }

private:
  /// The one query path: serves a fresh slot, else recomputes it (inside
  /// the slot's trace span) and restamps it.
  const std::shared_ptr<const void> &query(AnalysisID ID);
  std::shared_ptr<const void> compute(AnalysisID ID);
  void checkThread() const;

  template <typename T> const T &ref(AnalysisID ID) {
    return *static_cast<const T *>(query(ID).get());
  }
  template <typename T> std::shared_ptr<const T> shared(AnalysisID ID) {
    return std::static_pointer_cast<const T>(query(ID));
  }

  Function &F;
  bool CacheEnabled;
  obs::TraceSink *Trace;
  std::thread::id Owner;
  Slot Slots[NumAnalysisIDs];
  AnalysisCounters Stats;
};

} // namespace coderep::cfg

#endif // CODEREP_CFG_ANALYSISMANAGER_H
