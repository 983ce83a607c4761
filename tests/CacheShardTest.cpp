//===- CacheShardTest.cpp - Sharded disk store and eviction tests ---------===//
//
// Covers the PipelineCache's shared-store behavior: the 16-way key-prefix
// shard layout, LRU-by-mtime eviction under a byte budget, and
// cross-process safety - two forked processes hammering one store must
// never produce a torn entry, and a fresh reader must hit only complete
// files - plus the strict parsing of the --jobs/--cache-budget values that
// configure it.
//
// Deliberately named so it does NOT match the TSan matrix filter: the
// multi-process test forks, and fork() plus the TSan runtime do not mix.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cache/CompileCache.h"
#include "cache/PipelineCli.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "support/FlagTable.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace coderep;
using namespace coderep::bench;
namespace fs = std::filesystem;

namespace {

std::string freshDir(const char *Tag) {
  fs::path Dir = fs::path(::testing::TempDir()) /
                 ("coderep_shard_" + std::to_string(::getpid()) + "_" + Tag);
  fs::remove_all(Dir);
  return Dir.string();
}

std::string compileWith(cache::PipelineCache &Cache, const std::string &Src,
                        opt::PipelineStats *Stats = nullptr) {
  opt::PipelineOptions Opts;
  Opts.FunctionCache = &Cache;
  driver::Compilation C =
      driver::compile(Src, target::TargetKind::Sparc, opt::OptLevel::Jumps,
                      &Opts);
  EXPECT_TRUE(C.ok()) << C.Error;
  if (Stats)
    *Stats = C.Pipeline;
  return C.ok() ? cfg::toString(*C.Prog) : std::string();
}

/// Every entry file under \p Dir (shard subdirs only), with its size.
std::vector<std::pair<std::string, int64_t>> entryFiles(const std::string &Dir) {
  std::vector<std::pair<std::string, int64_t>> Out;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    if (!It->is_directory())
      continue;
    for (const fs::directory_entry &E : fs::directory_iterator(It->path()))
      if (E.path().extension() == ".fn")
        Out.emplace_back(E.path().string(),
                         static_cast<int64_t>(E.file_size()));
  }
  return Out;
}

int64_t totalBytes(const std::vector<std::pair<std::string, int64_t>> &Files) {
  int64_t Total = 0;
  for (const auto &[Path, Size] : Files)
    Total += Size;
  return Total;
}

TEST(CacheShard, EntriesLandInHexNibbleShards) {
  const std::string Dir = freshDir("layout");
  cache::PipelineCache Cache(Dir);
  for (size_t I = 0; I < 4; ++I)
    compileWith(Cache, suite()[I].Source);
  ASSERT_GT(Cache.diskWrites(), 0);

  // Everything under the store root is a single-hex-nibble directory;
  // every entry file sits inside one, named by its full 16-hex hash.
  size_t Entries = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    ASSERT_TRUE(E.is_directory()) << E.path();
    const std::string Shard = E.path().filename().string();
    ASSERT_EQ(Shard.size(), 1u) << Shard;
    ASSERT_NE(std::string("0123456789abcdef").find(Shard[0]),
              std::string::npos)
        << Shard;
    for (const fs::directory_entry &F : fs::directory_iterator(E.path())) {
      const std::string Name = F.path().filename().string();
      ASSERT_EQ(F.path().extension(), ".fn") << Name;
      ASSERT_EQ(Name.size(), 19u) << Name; // 16 hex + ".fn"
      // The shard nibble is the hash's leading nibble.
      EXPECT_EQ(Name[0], Shard[0]) << Name;
      ++Entries;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(Entries), Cache.diskWrites());
}

TEST(CacheShard, BudgetEvictsOldestMtimeFirst) {
  // Populate one store in two generations, A then B, and learn what a
  // third program C costs in a scratch store (compiles are deterministic,
  // so C's entry bytes are identical wherever it is compiled).
  const std::string Dir = freshDir("lru");
  const std::string &SrcA = program("queens").Source;
  const std::string &SrcB = program("wc").Source;
  const char *SrcC = "int main() { return 31; }";

  std::vector<std::pair<std::string, int64_t>> FilesA, FilesB;
  {
    cache::PipelineCache Unbounded(Dir);
    compileWith(Unbounded, SrcA);
    FilesA = entryFiles(Dir);
    compileWith(Unbounded, SrcB);
    for (const auto &F : entryFiles(Dir)) {
      bool InA = false;
      for (const auto &A : FilesA)
        InA |= A.first == F.first;
      if (!InA)
        FilesB.push_back(F);
    }
  }
  ASSERT_FALSE(FilesA.empty());
  ASSERT_FALSE(FilesB.empty());
  int64_t SizeC = 0;
  {
    const std::string Scratch = freshDir("lru_scratch");
    cache::PipelineCache Probe(Scratch);
    compileWith(Probe, SrcC);
    SizeC = totalBytes(entryFiles(Scratch));
    fs::remove_all(Scratch);
  }
  ASSERT_GT(SizeC, 0);

  // Make generation A unambiguously the oldest.
  const auto Old = fs::file_time_type::clock::now() - std::chrono::hours(24);
  for (const auto &[Path, Size] : FilesA)
    fs::last_write_time(Path, Old);

  // A budget with room for B and C but not A: storing C must evict all of
  // A (oldest first) and nothing of B.
  const int64_t Budget = totalBytes(FilesB) + SizeC;
  cache::PipelineCache Bounded(Dir, /*MaxEntries=*/1024, Budget);
  compileWith(Bounded, SrcC);

  EXPECT_GE(Bounded.diskEvictions(), static_cast<int64_t>(FilesA.size()));
  EXPECT_LE(Bounded.diskBytes(), Budget);
  for (const auto &[Path, Size] : FilesA)
    EXPECT_FALSE(fs::exists(Path)) << "stale entry survived: " << Path;
  for (const auto &[Path, Size] : FilesB)
    EXPECT_TRUE(fs::exists(Path)) << "fresh entry evicted: " << Path;
  const auto Remaining = entryFiles(Dir);
  EXPECT_LE(totalBytes(Remaining), Budget);
}

TEST(CacheShard, DiskHitTouchesMtimeForLru) {
  const std::string Dir = freshDir("touch");
  const std::string &Src = program("cal").Source;
  {
    cache::PipelineCache Writer(Dir);
    compileWith(Writer, Src);
  }
  const auto Files = entryFiles(Dir);
  ASSERT_FALSE(Files.empty());
  const auto Old = fs::file_time_type::clock::now() - std::chrono::hours(24);
  for (const auto &[Path, Size] : Files)
    fs::last_write_time(Path, Old);

  // A fresh instance serves the entries from disk, which must refresh
  // their mtimes - that is what makes budget eviction LRU, not FIFO.
  cache::PipelineCache Reader(Dir);
  compileWith(Reader, Src);
  EXPECT_GT(Reader.diskHits(), 0);
  for (const auto &[Path, Size] : Files)
    EXPECT_GT(fs::last_write_time(Path), Old) << Path;
}

// Two processes hammer one store concurrently, writing the same keys. The
// temp+rename discipline must keep every published entry complete: a
// fresh reader afterwards must serve the whole suite from disk with zero
// recompiles and byte-identical output.
TEST(CacheShardMultiProcess, ConcurrentWritersNeverTearEntries) {
  const std::string Dir = freshDir("mp");

  // Reference texts, compiled without any cache.
  std::vector<std::string> Expected;
  for (const BenchProgram &BP : suite()) {
    driver::Compilation C = driver::compile(
        BP.Source, target::TargetKind::Sparc, opt::OptLevel::Jumps);
    ASSERT_TRUE(C.ok()) << BP.Name;
    Expected.push_back(cfg::toString(*C.Prog));
  }

  constexpr int Writers = 2;
  std::vector<pid_t> Pids;
  for (int W = 0; W < Writers; ++W) {
    std::fflush(nullptr);
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: compile the whole suite through the shared store. Opposite
      // orders maximize same-key write races.
      cache::PipelineCache Cache(Dir);
      opt::PipelineOptions Opts;
      Opts.FunctionCache = &Cache;
      for (size_t I = 0; I < suite().size(); ++I) {
        const BenchProgram &BP =
            W == 0 ? suite()[I] : suite()[suite().size() - 1 - I];
        driver::Compilation C =
            driver::compile(BP.Source, target::TargetKind::Sparc,
                            opt::OptLevel::Jumps, &Opts);
        if (!C.ok())
          _exit(1);
      }
      _exit(0);
    }
    Pids.push_back(Pid);
  }
  for (pid_t Pid : Pids) {
    int Status = 0;
    ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  }

  // Every published file must be complete: a fresh reader serves every
  // function from disk (zero pipeline misses) with the reference bytes.
  cache::PipelineCache Reader(Dir);
  for (size_t I = 0; I < suite().size(); ++I) {
    opt::PipelineStats Stats;
    EXPECT_EQ(compileWith(Reader, suite()[I].Source, &Stats),
              Expected[I])
        << suite()[I].Name;
    EXPECT_EQ(Stats.FunctionCacheMisses, 0) << suite()[I].Name;
    EXPECT_GT(Stats.FunctionCacheHits, 0) << suite()[I].Name;
  }
  EXPECT_GT(Reader.diskHits(), 0);
  EXPECT_EQ(Reader.misses(), 0);
  fs::remove_all(Dir);
}

// The shared pipeline flags parse their numbers strictly: a malformed value
// is a usage error, not a misreading ("--cache-budget=1.5G" must not become
// a 1-byte budget that evicts every entry, nor "--jobs=abc" mean every core).
TEST(CacheShard, PipelineCliRejectsMalformedNumbers) {
  cache::PipelineCli Cli;
  support::FlagTable Flags("t");
  Cli.addFlags(Flags);
  EXPECT_EQ(Flags.parse({"--jobs=3"}), "");
  EXPECT_EQ(Cli.jobs(), 3);
  for (const char *Bad : {"--jobs=abc", "--jobs=", "--jobs=-2", "--jobs=+2",
                          "--jobs=4x", "--jobs=99999999999", "--jobs"})
    EXPECT_NE(Flags.parse({Bad}), "") << Bad;
  EXPECT_EQ(Cli.jobs(), 3) << "a rejected value must leave the state alone";

  EXPECT_EQ(Flags.parse({"--cache-budget=256M"}), "");
  EXPECT_NE(Flags.parse({"--cache-budget=1.5G"}), "");
  EXPECT_EQ(Flags.parse({"--pipeline-cache"}), ""); // bare: in memory
  EXPECT_NE(Flags.parse({"--pipeline-cache="}), "");

  support::FlagTable Bytes("t");
  int64_t Budget = -1;
  Bytes.bytes("cache-budget", Budget, "h");
  const std::pair<const char *, int64_t> Good[] = {
      {"0", 0}, {"4096", 4096}, {"64k", 64 << 10}, {"8M", 8 << 20},
      {"1G", int64_t(1) << 30}, {"8589934591G", INT64_MAX >> 30 << 30}};
  for (const auto &[Text, Want] : Good) {
    Budget = -1;
    EXPECT_EQ(Bytes.parse({std::string("--cache-budget=") + Text}), "")
        << Text;
    EXPECT_EQ(Budget, Want) << Text;
  }
  for (const char *Bad : {"", "1.5G", "-1", "10X", "G", "1GB",
                          "99999999999999G", "8589934592G",
                          "99999999999999999999"}) {
    Budget = -1;
    EXPECT_NE(Bytes.parse({std::string("--cache-budget=") + Bad}), "") << Bad;
    EXPECT_EQ(Budget, -1) << Bad;
  }
}

} // namespace
