//===- PipelineCli.h - Shared --jobs/--pipeline-cache handling --*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The throughput counterpart of obs::ObsCli: addFlags() declares the
/// --jobs, --pipeline-cache and --cache-budget rows, and after parsing
/// apply() installs them, with the cache they ask for, on the
/// PipelineOptions the binary compiles with. Output is byte-identical at
/// any value. The binaries default to every core; the library's
/// PipelineOptions default stays serial.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CACHE_PIPELINECLI_H
#define CODEREP_CACHE_PIPELINECLI_H

#include "cache/CompileCache.h"
#include "opt/Pipeline.h"
#include "support/FlagTable.h"

#include <memory>
#include <string>

namespace coderep::cache {

/// Owns the pipeline-speed settings and (when requested) the
/// PipelineCache for one binary.
class PipelineCli {
public:
  /// Declares the --jobs, --pipeline-cache and --cache-budget rows into
  /// \p Flags.
  void addFlags(support::FlagTable &Flags) {
    Flags.count("jobs", Jobs, "functions optimized at once (0 = every core)");
    Flags.text("pipeline-cache", CacheDir, "DIR",
               "function cache under DIR (bare: in memory)", &WantCache);
    Flags.bytes("cache-budget", Budget, "disk cache size (0 = unbounded)");
  }

  /// Installs the parsed state into \p Options (creating the cache on
  /// first use so repeated apply() calls share one store).
  void apply(opt::PipelineOptions &Options) {
    Options.Jobs = Jobs;
    if (WantCache && !Cache)
      Cache = std::make_unique<PipelineCache>(CacheDir, /*MaxEntries=*/1024,
                                              Budget);
    Options.FunctionCache = Cache.get();
  }

  /// Parallelism degree: 0 = hardware concurrency (the binaries' default),
  /// 1 = serial, N = exactly N workers.
  int jobs() const { return Jobs; }

  /// The cache, when one was requested (for counter reporting); else null.
  PipelineCache *cache() { return Cache.get(); }

private:
  int Jobs = 0; ///< 0 = hardware concurrency
  bool WantCache = false;
  int64_t Budget = 0; ///< on-disk size bound; 0 = unbounded
  std::string CacheDir;
  std::unique_ptr<PipelineCache> Cache;
};

} // namespace coderep::cache

#endif // CODEREP_CACHE_PIPELINECLI_H
