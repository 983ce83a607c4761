//===- AnalysisManager.cpp - Cached analyses and preserved sets -----------===//

#include "cfg/AnalysisManager.h"

#include "obs/ScopedTimer.h"
#include "support/Check.h"

#include <string>

using namespace coderep;
using namespace coderep::cfg;

const char *cfg::analysisName(AnalysisID ID) {
  switch (ID) {
  case AnalysisID::FlatCfg:
    return "flatcfg";
  case AnalysisID::Dominators:
    return "dominators";
  case AnalysisID::Loops:
    return "loops";
  case AnalysisID::Liveness:
    return "liveness";
  }
  CODEREP_UNREACHABLE("bad analysis id");
}

static int64_t sum(const int64_t (&Values)[NumAnalysisIDs]) {
  int64_t T = 0;
  for (int64_t V : Values)
    T += V;
  return T;
}

int64_t AnalysisCounters::totalHits() const { return sum(Hits); }
int64_t AnalysisCounters::totalRecomputes() const { return sum(Recomputes); }
int64_t AnalysisCounters::totalInvalidations() const {
  return sum(Invalidations);
}

AnalysisCounters &AnalysisCounters::operator+=(const AnalysisCounters &O) {
  for (int I = 0; I < NumAnalysisIDs; ++I) {
    Hits[I] += O.Hits[I];
    Recomputes[I] += O.Recomputes[I];
    Invalidations[I] += O.Invalidations[I];
  }
  return *this;
}

AnalysisManager::AnalysisManager(Function &F, bool CacheEnabled,
                                 obs::TraceSink *Trace)
    : F(F), CacheEnabled(CacheEnabled), Trace(Trace),
      Owner(std::this_thread::get_id()) {}

void AnalysisManager::checkThread() const {
  CODEREP_CHECK(std::this_thread::get_id() == Owner,
                "AnalysisManager used from a thread other than its owner "
                "(per-function managers must not cross ThreadPool workers)");
}

const std::shared_ptr<const void> &AnalysisManager::query(AnalysisID ID) {
  checkThread();
  const int I = static_cast<int>(ID);
  Slot &S = Slots[I];
  if (CacheEnabled && S.Ptr && S.Stamp == F.analysisEpoch()) {
    ++Stats.Hits[I];
    return S.Ptr;
  }
  // The span name is built only when a span will be recorded, so an
  // untraced compile allocates nothing for it.
  obs::ScopedTimer Span(Trace, Trace && Trace->eventsEnabled()
                                   ? std::string("analysis: ") +
                                         analysisName(ID)
                                   : std::string());
  S.Ptr = compute(ID);
  S.Stamp = F.analysisEpoch();
  ++Stats.Recomputes[I];
  return S.Ptr;
}

std::shared_ptr<const void> AnalysisManager::compute(AnalysisID ID) {
  switch (ID) {
  case AnalysisID::FlatCfg:
    return std::make_shared<const FlatCfg>(F);
  case AnalysisID::Dominators:
    return std::make_shared<const Dominators>(
        F, *shared<FlatCfg>(AnalysisID::FlatCfg));
  case AnalysisID::Loops: {
    // Both inputs are pinned: with caching off, the dominator query
    // rebuilds (and replaces) the flat-CFG slot.
    std::shared_ptr<const FlatCfg> Flat = shared<FlatCfg>(AnalysisID::FlatCfg);
    std::shared_ptr<const Dominators> Dom = dominatorsShared();
    return std::make_shared<const LoopInfo>(F, *Flat, *Dom);
  }
  case AnalysisID::Liveness:
    return std::make_shared<const Liveness>(
        F, *shared<FlatCfg>(AnalysisID::FlatCfg));
  }
  CODEREP_UNREACHABLE("bad analysis id");
}

void AnalysisManager::commit(uint64_t BeforeEpoch,
                             const PreservedAnalyses &PA) {
  checkThread();
  // A pass whose edits were all in place has not moved the epoch; bump it
  // here so the change is observed (and so entries computed before the
  // edits cannot be mistaken for current ones).
  if (F.analysisEpoch() == BeforeEpoch)
    F.noteRtlEdit();
  const uint64_t Now = F.analysisEpoch();
  for (int I = 0; I < NumAnalysisIDs; ++I) {
    Slot &S = Slots[I];
    if (!S.Ptr)
      continue;
    // An entry computed at or after Before reflects either the state the
    // keeping pass started from or an intermediate state it declared
    // equivalent for this analysis; restamp it to the new epoch. Anything
    // older predates edits the pass did not vouch for: drop it.
    if (PA.preserved(static_cast<AnalysisID>(I)) && S.Stamp >= BeforeEpoch) {
      S.Stamp = Now;
      continue;
    }
    S.Ptr.reset();
    ++Stats.Invalidations[I];
  }
}

AnalysisManager::Snapshot AnalysisManager::snapshot() const {
  Snapshot S;
  S.Epoch = F.analysisEpoch();
  for (int I = 0; I < NumAnalysisIDs; ++I)
    S.Slots[I] = Slots[I];
  return S;
}

void AnalysisManager::restore(const Snapshot &S) {
  checkThread();
  F.restoreAnalysisEpoch(S.Epoch);
  for (int I = 0; I < NumAnalysisIDs; ++I) {
    if (Slots[I].Ptr && Slots[I].Ptr != S.Slots[I].Ptr)
      ++Stats.Invalidations[I];
    Slots[I] = S.Slots[I];
  }
}
