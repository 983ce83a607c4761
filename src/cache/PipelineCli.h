//===- PipelineCli.h - Shared --jobs/--pipeline-cache handling --*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The throughput counterpart of obs::ObsCli: the compiling examples
/// (minic_compiler, inspect_replication, cache_study, codrepd) expose the
/// same pipeline-speed flags, and this header is the one place that parses
/// them and owns the resulting cache:
///
///   --jobs=N              optimize N functions concurrently
///                         (N=0 or omitted value = hardware concurrency;
///                         binaries default to hardware concurrency, the
///                         library's PipelineOptions default stays serial)
///   --pipeline-cache=DIR  persist optimized function bodies under DIR and
///                         serve identical compiles from it; "" (empty DIR)
///                         selects a process-local in-memory cache
///   --cache-budget=BYTES  bound the on-disk store: past the budget, entry
///                         files are evicted oldest-mtime-first (K/M/G
///                         suffixes accepted; 0 = unbounded, the default)
///
/// Usage mirrors ObsCli: call consume() on each argv entry (true = it was
/// one of these flags), then apply() on the PipelineOptions the binary is
/// about to compile with. Output is byte-identical at any flag value - the
/// flags only change how fast it is produced. A flag with a malformed value
/// ("--jobs=abc", "--cache-budget=1.5G") is not consumed, so the binary
/// rejects it as an unknown option instead of silently misreading it.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CACHE_PIPELINECLI_H
#define CODEREP_CACHE_PIPELINECLI_H

#include "cache/CompileCache.h"
#include "opt/Pipeline.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <memory>
#include <string>

namespace coderep::cache {

/// Owns the parsed flag state and (when requested) the PipelineCache for
/// one binary.
class PipelineCli {
public:
  /// Returns true when \p Arg was one of the pipeline-speed flags with a
  /// well-formed value.
  bool consume(const std::string &Arg) {
    if (Arg.rfind("--jobs=", 0) == 0)
      return parseCount(Arg.c_str() + 7, Jobs);
    if (Arg == "--jobs") { // bare form: use every core
      Jobs = 0;
      return true;
    }
    if (Arg.rfind("--pipeline-cache=", 0) == 0) {
      CacheDir = Arg.substr(17);
      WantCache = true;
      return true;
    }
    if (Arg == "--pipeline-cache") { // bare form: in-memory only
      CacheDir.clear();
      WantCache = true;
      return true;
    }
    if (Arg.rfind("--cache-budget=", 0) == 0)
      return parseBytes(Arg.c_str() + 15, Budget);
    return false;
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

  /// One usage line describing the flags, for --help texts.
  static const char *usage() {
    return "[--jobs=N] [--pipeline-cache[=DIR]] [--cache-budget=BYTES]";
  }

  /// Parses a plain non-negative decimal int ("0", "16") into \p Out.
  /// Returns false, leaving \p Out untouched, on empty input, a sign,
  /// trailing text or overflow.
  static bool parseCount(const char *S, int &Out) {
    int64_t V = 0;
    const char *End = S;
    if (!leadingDigits(S, V, End) || *End || V > INT_MAX)
      return false;
    Out = static_cast<int>(V);
    return true;
  }

  /// Parses "4096", "64K", "8M", "1G" (case-insensitive suffix) into bytes.
  /// Returns false, leaving \p Out untouched, on anything else ("1.5G",
  /// "-1", "10X", "") or when the scaled value overflows.
  static bool parseBytes(const char *S, int64_t &Out) {
    int64_t V = 0;
    const char *End = S;
    if (!leadingDigits(S, V, End))
      return false;
    int Shift = 0;
    switch (*End) {
    case '\0': break;
    case 'k': case 'K': Shift = 10; break;
    case 'm': case 'M': Shift = 20; break;
    case 'g': case 'G': Shift = 30; break;
    default: return false;
    }
    if ((Shift && End[1]) || V > (INT64_MAX >> Shift))
      return false; // text after the suffix, or overflow
    Out = V << Shift;
    return true;
  }

private:
  /// Reads the leading decimal digits of \p S into \p V and points \p End
  /// past them. False when \p S does not start with a digit (empty, signed
  /// or non-numeric) or the digits overflow.
  static bool leadingDigits(const char *S, int64_t &V, const char *&End) {
    if (*S < '0' || *S > '9')
      return false;
    char *E = nullptr;
    errno = 0;
    V = std::strtoll(S, &E, 10);
    End = E;
    return errno != ERANGE;
  }

  int Jobs = 0; ///< 0 = hardware concurrency
  bool WantCache = false;
  int64_t Budget = 0; ///< on-disk size bound; 0 = unbounded
  std::string CacheDir;
  std::unique_ptr<PipelineCache> Cache;
};

} // namespace coderep::cache

#endif // CODEREP_CACHE_PIPELINECLI_H
