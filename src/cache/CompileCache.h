//===- CompileCache.h - Content-addressed optimized-function cache -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete FunctionOptimizationCache: a thread-safe in-memory LRU of
/// optimized function bodies, content-addressed by the full (post-legalize
/// RTL text, frame layout, label/vreg counters, target, semantic pipeline
/// options) key, with optional on-disk persistence so repeated bench
/// sweeps and multi-process runs stop recompiling identical inputs.
///
/// Correctness model: the key folds in everything that can perturb the
/// optimized bytes, and the optimizer is deterministic, so equal keys map
/// to equal results and serving a hit is byte-identical to recompiling.
/// Hashes are never trusted alone - every hit compares the stored key
/// material verbatim, in memory and on disk, so a 64-bit collision
/// degrades to a miss instead of wrong code.
///
/// On a hit the entry replays the *decision* counters of the original
/// compile (replication stats, fixpoint rounds, delay-slot nops), keeping
/// Table-5-style reporting stable, but none of the *work* counters (phase
/// micros, passes run/skipped, analysis hits and recomputes): no work was
/// done, and pretending otherwise would corrupt throughput benchmarks.
///
/// Disk format: one "<fnv64>.fn" file per entry, sharded across 16
/// subdirectories of the configured directory by the key hash's leading
/// hex nibble ("<DiskDir>/<nibble>/<fnv64>.fn") so a shared store under
/// heavy multi-process traffic spreads directory contention. Writes are
/// atomic (private temp file - unique per process AND thread - then
/// rename), so concurrent processes hammering the same store never
/// observe a torn entry; corrupt or partial files degrade to a miss.
///
/// Eviction: with a nonzero disk budget, the store is bounded globally -
/// whenever the total on-disk size exceeds the budget, entry files are
/// removed oldest-mtime-first (disk hits touch mtime, making this LRU,
/// not FIFO) until the store fits again. Each process enforces the budget
/// independently; racing removals are benign (a file already gone counts
/// as evicted).
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CACHE_COMPILECACHE_H
#define CODEREP_CACHE_COMPILECACHE_H

#include "obs/Metrics.h"
#include "opt/Pipeline.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace coderep::cache {

/// Content-addressed LRU memo of optimized function bodies.
class PipelineCache final : public opt::FunctionOptimizationCache {
public:
  /// \p DiskDir: when non-empty, entries persist as sharded files under
  /// the directory (created on first write) and misses consult it before
  /// recompiling. \p MaxEntries bounds the in-memory LRU.
  /// \p DiskBudgetBytes, when nonzero, bounds the total on-disk size:
  /// stores that push the store past the budget evict the oldest-mtime
  /// entry files until it fits.
  explicit PipelineCache(std::string DiskDir = {}, size_t MaxEntries = 1024,
                         int64_t DiskBudgetBytes = 0);
  ~PipelineCache() override;

  std::string keyFor(const cfg::Function &F, const target::Target &T,
                     const opt::PipelineOptions &Options) const override;
  bool lookup(const std::string &Key, cfg::Function &F,
              opt::PipelineStats *Stats) override;
  void store(const std::string &Key, const cfg::Function &F,
             const opt::PipelineStats &Delta) override;

  // Counters (monotonic over the cache's lifetime).
  int64_t hits() const;       ///< in-memory hits
  int64_t misses() const;     ///< lookups that found nothing anywhere
  int64_t evictions() const;  ///< LRU entries dropped over MaxEntries
  int64_t diskHits() const;   ///< misses satisfied from the disk store
  int64_t diskWrites() const; ///< entry files written
  int64_t diskEvictions() const; ///< entry files removed by the budget
  int64_t diskBytes() const;  ///< last known total on-disk size (-1 unknown)
  size_t entries() const;     ///< current in-memory entry count

  /// Publishes the counters as "pipeline_cache.*" gauges (entries,
  /// evictions, disk_hits, disk_writes; hit/miss deltas are added by
  /// opt::optimizeProgram as compiles happen).
  void publishMetrics(obs::MetricsRegistry &M) const;

  /// One cached result; declared here (not defined) so the codec helpers in
  /// CompileCache.cpp can name the type.
  struct Entry;

private:
  bool applyEntry(const Entry &E, cfg::Function &F,
                  opt::PipelineStats *Stats) const;
  void insertLocked(uint64_t Hash, std::unique_ptr<Entry> E);
  std::string pathFor(uint64_t Hash) const;
  bool writeDiskFile(uint64_t Hash, const std::string &Bytes) const;
  void accountDiskWrite(int64_t Bytes);
  void enforceBudgetLocked();

  std::string DiskDir;
  size_t MaxEntries;
  int64_t DiskBudget; ///< bytes; 0 = unbounded

  /// Budget state, under its own lock so a shard scan never blocks
  /// lookups. DiskBytesKnown = -1 until the first accounting pass scans
  /// the store (other processes may have populated it).
  mutable std::mutex DiskMu;
  int64_t DiskBytesKnown = -1;
  int64_t DiskEvictions = 0;

  mutable std::mutex Mu;
  // LRU: most recent at the front; the map indexes list nodes by key hash.
  std::list<std::unique_ptr<Entry>> Lru;
  std::unordered_map<uint64_t, std::list<std::unique_ptr<Entry>>::iterator>
      Index;
  int64_t Hits = 0, Misses = 0, Evictions = 0, DiskHits = 0, DiskWrites = 0;
};

} // namespace coderep::cache

#endif // CODEREP_CACHE_COMPILECACHE_H
