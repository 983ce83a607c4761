//===- CompileCache.cpp - Content-addressed optimized-function cache --------===//

#include "cache/CompileCache.h"

#include "cfg/FunctionPrinter.h"
#include "support/Format.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace coderep;
using namespace coderep::cache;

//===----------------------------------------------------------------------===//
// Key construction
//===----------------------------------------------------------------------===//

// The key folds in every input the per-function pipeline reads: the target,
// the semantic options (level, fixpoint cap, replication tunables), the
// frame layout, the fresh-name counters (they decide which labels/vregs new
// blocks receive, i.e. output bytes), the promotable-local set, and the
// whole post-legalize RTL text. Deliberately excluded are the knobs that
// the differential tests prove byte-identical - Jobs, Reference, the
// verifier, tracing - so warm entries are shared across those modes, and
// global data, which
// no function pass reads (memory operands carry symbol ids only).
std::string PipelineCache::keyFor(const cfg::Function &F,
                                  const target::Target &T,
                                  const opt::PipelineOptions &Options) const {
  const replicate::ReplicationOptions &R = Options.Replication;
  std::string Key;
  // One "<name> <value>..." header line.
  auto line = [&Key](const char *Name, auto... Values) {
    Key += Name;
    ((Key += ' ', appendInt(Key, Values)), ...);
    Key += '\n';
  };
  Key += "coderep-fn-key v2\ntarget ";
  Key += T.name();
  Key += '\n';
  line("level", static_cast<int>(Options.Level));
  line("maxiter", Options.MaxFixpointIterations);
  // The mutation-testing flag deliberately miscompiles, so it is as
  // semantic as the optimization level. (The Verifier itself is
  // byte-neutral and stays out, like Jobs.)
  line("mutate", Options.MutateForTesting ? 1 : 0);
  line("heuristic", static_cast<int>(R.Heuristic));
  line("maxseq", R.MaxSequenceRtls);
  char GrowthHex[64];
  // %a is exact for doubles, so the key never depends on decimal rounding.
  std::snprintf(GrowthHex, sizeof(GrowthHex), "%a", R.MaxGrowthFactor);
  Key += "growth ";
  Key += GrowthHex;
  Key += '\n';
  line("growthbase", R.GrowthBaselineRtls);
  line("maxrepl", R.MaxReplacements);
  line("indirect", R.AllowIndirectEndings ? 1 : 0);
  line("frame", F.FrameBytes, F.ParamBytes);
  line("limits", F.labelLimit(), F.vregLimit());
  Key += "promotable ";
  appendInt(Key, static_cast<int64_t>(F.PromotableLocals.size()));
  Key += ':';
  for (int Off : F.PromotableLocals) {
    Key += ' ';
    appendInt(Key, Off);
  }
  Key += '\n';
  // Length-prefixed so the free-form RTL text (which embeds the function
  // name) cannot be confused with the structured header above. The text
  // is printed straight into the key; its length is inserted in front of
  // it afterwards.
  Key += "rtl ";
  const size_t LengthAt = Key.size();
  Key += '\n';
  cfg::appendText(Key, F);
  std::string Length;
  appendInt(Length, static_cast<int64_t>(Key.size() - LengthAt - 1));
  Key.insert(LengthAt, Length);
  return Key;
}

//===----------------------------------------------------------------------===//
// Entries
//===----------------------------------------------------------------------===//

struct PipelineCache::Entry {
  std::string Key; ///< full key material, compared verbatim on every hit
  std::unique_ptr<cfg::Function> Body; ///< the optimized result
  opt::PipelineStats Semantic; ///< decision counters only (see semanticOnly)

  /// Translation-validation metadata: the body passed its oracle checks
  /// when first compiled. Key-independent - verification cannot perturb
  /// bytes - so hits under any verifier config may trust it.
  bool Verified = false;
};

namespace {

// Strips a compile's stats down to the counters that describe *decisions*
// (stable across a hit) rather than *work* (meaningless on a hit).
opt::PipelineStats semanticOnly(const opt::PipelineStats &S) {
  opt::PipelineStats Out;
  Out.Replication = S.Replication;
  Out.FixpointIterations = S.FixpointIterations;
  Out.DelaySlotNops = S.DelaySlotNops;
  return Out;
}

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

bool PipelineCache::applyEntry(const Entry &E, cfg::Function &F,
                               opt::PipelineStats *Stats) const {
  // Adopt a private copy of the stored body; the entry stays untouched for
  // future hits. The function keeps its own Name (not part of the body).
  std::unique_ptr<cfg::Function> Copy = E.Body->clone();
  F.adoptBlocksFrom(*Copy);
  F.FrameBytes = E.Body->FrameBytes;
  F.ParamBytes = E.Body->ParamBytes;
  F.PromotableLocals = E.Body->PromotableLocals;
  if (Stats)
    *Stats += E.Semantic;
  return true;
}

//===----------------------------------------------------------------------===//
// Disk codec
//===----------------------------------------------------------------------===//
//
// One entry per file, line-oriented and fully numeric except for the
// length-prefixed key material:
//
//   coderep-pipeline-cache 1
//   key <bytes>\n<raw key material>
//   frame <FrameBytes> <ParamBytes>
//   limits <labelLimit> <vregLimit>
//   promotable <n> <off...>
//   stats <8 replication counters> <FixpointIterations> <DelaySlotNops>
//   blocks <n>
//   block <label> <ninsns> <hasSlot>
//   i <op> <cond> <target> <callee> <ntable> <labels...> <dst> <src1> <src2>
//   ...
//   end
//
// Operands serialize as "<kind> <base> <disp> <index> <scale> <sym> <size>".
// Readers validate eagerly and reject the file (returning a miss) on any
// mismatch, so stale or truncated files degrade to recompilation.

namespace {

void writeOperand(std::ostream &Out, const rtl::Operand &O) {
  Out << " " << static_cast<int>(O.Kind) << " " << O.Base << " " << O.Disp
      << " " << O.Index << " " << O.Scale << " " << O.Sym << " "
      << static_cast<int>(O.Size);
}

bool readOperand(std::istream &In, rtl::Operand &O) {
  int Kind = 0, Size = 0;
  if (!(In >> Kind >> O.Base >> O.Disp >> O.Index >> O.Scale >> O.Sym >> Size))
    return false;
  if (Kind < 0 || Kind > static_cast<int>(rtl::OperandKind::Mem))
    return false;
  O.Kind = static_cast<rtl::OperandKind>(Kind);
  O.Size = static_cast<uint8_t>(Size);
  return true;
}

void writeInsn(std::ostream &Out, const char *Tag, const rtl::Insn &I) {
  Out << Tag << " " << static_cast<int>(I.Op) << " "
      << static_cast<int>(I.Cond) << " " << I.Target << " " << I.Callee << " "
      << I.Table.size();
  for (int L : I.Table)
    Out << " " << L;
  writeOperand(Out, I.Dst);
  writeOperand(Out, I.Src1);
  writeOperand(Out, I.Src2);
  Out << "\n";
}

bool readInsn(std::istream &In, const char *Tag, rtl::Insn &I) {
  std::string Word;
  int Op = 0, Cond = 0;
  size_t NTable = 0;
  if (!(In >> Word) || Word != Tag)
    return false;
  if (!(In >> Op >> Cond >> I.Target >> I.Callee >> NTable))
    return false;
  if (Op < 0 || Op > static_cast<int>(rtl::Opcode::Nop) || Cond < 0 ||
      Cond > static_cast<int>(rtl::CondCode::Ge) || NTable > 1000000)
    return false;
  I.Op = static_cast<rtl::Opcode>(Op);
  I.Cond = static_cast<rtl::CondCode>(Cond);
  I.Table.resize(NTable);
  for (size_t J = 0; J < NTable; ++J)
    if (!(In >> I.Table[J]))
      return false;
  return readOperand(In, I.Dst) && readOperand(In, I.Src1) &&
         readOperand(In, I.Src2);
}

void serializeEntry(std::ostream &Out, const PipelineCache::Entry &E) {
  const cfg::Function &F = *E.Body;
  Out << "coderep-pipeline-cache 2\n";
  Out << "key " << E.Key.size() << "\n" << E.Key << "\n";
  Out << "verified " << (E.Verified ? 1 : 0) << "\n";
  Out << "frame " << F.FrameBytes << " " << F.ParamBytes << "\n";
  Out << "limits " << F.labelLimit() << " " << F.vregLimit() << "\n";
  Out << "promotable " << F.PromotableLocals.size();
  for (int Off : F.PromotableLocals)
    Out << " " << Off;
  Out << "\n";
  const replicate::ReplicationStats &R = E.Semantic.Replication;
  Out << "stats " << R.JumpsReplaced << " " << R.RolledBackIrreducible << " "
      << R.SkippedLengthCap << " " << R.SkippedGrowthBudget << " "
      << R.SkippedNoCandidate << " " << R.LoopsCompleted << " "
      << R.Step5Retargets << " " << R.StubJumpsAdded << " "
      << E.Semantic.FixpointIterations << " " << E.Semantic.DelaySlotNops
      << "\n";
  Out << "blocks " << F.size() << "\n";
  for (int I = 0; I < F.size(); ++I) {
    const cfg::BasicBlock *B = F.block(I);
    Out << "block " << B->Label << " " << B->Insns.size() << " "
        << (B->DelaySlot ? 1 : 0) << "\n";
    for (auto Insn : B->Insns)
      writeInsn(Out, "i", Insn);
    if (B->DelaySlot)
      writeInsn(Out, "slot", *B->DelaySlot);
  }
  Out << "end\n";
}

std::unique_ptr<PipelineCache::Entry> deserializeEntry(std::istream &In) {
  std::string Word;
  int Version = 0;
  // Version 1 predates the verified flag AND the v1 key schema, whose keys
  // can never equal a current key; rejecting it degrades to a clean miss.
  if (!(In >> Word >> Version) || Word != "coderep-pipeline-cache" ||
      Version != 2)
    return nullptr;

  size_t KeyLen = 0;
  if (!(In >> Word >> KeyLen) || Word != "key" || KeyLen > (64u << 20))
    return nullptr;
  In.get(); // the newline after the length
  std::string Key(KeyLen, '\0');
  if (!In.read(Key.data(), static_cast<std::streamsize>(KeyLen)))
    return nullptr;

  auto E = std::make_unique<PipelineCache::Entry>();
  E->Key = std::move(Key);

  int Verified = 0;
  if (!(In >> Word >> Verified) || Word != "verified")
    return nullptr;
  E->Verified = Verified != 0;
  // The stored Name is not needed: hits keep the live function's Name.
  E->Body = std::make_unique<cfg::Function>("<cached>");
  cfg::Function &F = *E->Body;

  if (!(In >> Word >> F.FrameBytes >> F.ParamBytes) || Word != "frame")
    return nullptr;

  int LabelLimit = 0, VRegLimit = 0;
  if (!(In >> Word >> LabelLimit >> VRegLimit) || Word != "limits" ||
      LabelLimit < 0 || VRegLimit < rtl::FirstVirtual)
    return nullptr;
  // Replay the fresh-name counters so the restored function hands out
  // exactly the names a recompilation would.
  while (F.labelLimit() < LabelLimit)
    F.freshLabel();
  while (F.vregLimit() < VRegLimit)
    F.freshVReg();

  size_t NPromotable = 0;
  if (!(In >> Word >> NPromotable) || Word != "promotable" ||
      NPromotable > 1000000)
    return nullptr;
  F.PromotableLocals.resize(NPromotable);
  for (size_t I = 0; I < NPromotable; ++I)
    if (!(In >> F.PromotableLocals[I]))
      return nullptr;

  replicate::ReplicationStats &R = E->Semantic.Replication;
  if (!(In >> Word >> R.JumpsReplaced >> R.RolledBackIrreducible >>
        R.SkippedLengthCap >> R.SkippedGrowthBudget >> R.SkippedNoCandidate >>
        R.LoopsCompleted >> R.Step5Retargets >> R.StubJumpsAdded >>
        E->Semantic.FixpointIterations >> E->Semantic.DelaySlotNops) ||
      Word != "stats")
    return nullptr;

  int NBlocks = 0;
  if (!(In >> Word >> NBlocks) || Word != "blocks" || NBlocks < 0 ||
      NBlocks > 1000000)
    return nullptr;
  for (int I = 0; I < NBlocks; ++I) {
    int Label = 0, HasSlot = 0;
    size_t NInsns = 0;
    if (!(In >> Word >> Label >> NInsns >> HasSlot) || Word != "block" ||
        Label < 0 || Label >= LabelLimit || NInsns > 10000000)
      return nullptr;
    cfg::BasicBlock *B = F.appendBlockWithLabel(Label);
    for (size_t J = 0; J < NInsns; ++J) {
      rtl::Insn I;
      if (!readInsn(In, "i", I))
        return nullptr;
      B->Insns.push_back(std::move(I));
    }
    if (HasSlot) {
      rtl::Insn Slot;
      if (!readInsn(In, "slot", Slot))
        return nullptr;
      B->DelaySlot = Slot;
    }
  }
  if (!(In >> Word) || Word != "end")
    return nullptr;
  return E;
}

} // namespace

// Entries shard by the leading hex nibble of the key hash: 16 directories
// that spread a shared multi-process store's directory traffic and keep
// any one directory listing short for the budget scan.
std::string PipelineCache::pathFor(uint64_t Hash) const {
  char Name[40];
  std::snprintf(Name, sizeof(Name), "%x/%016" PRIx64 ".fn",
                static_cast<unsigned>(Hash >> 60), Hash);
  return DiskDir + "/" + Name;
}

//===----------------------------------------------------------------------===//
// LRU + lookup/store
//===----------------------------------------------------------------------===//

PipelineCache::PipelineCache(std::string DiskDirIn, size_t MaxEntriesIn,
                             int64_t DiskBudgetBytes)
    : DiskDir(std::move(DiskDirIn)),
      MaxEntries(MaxEntriesIn == 0 ? 1 : MaxEntriesIn),
      DiskBudget(DiskBudgetBytes < 0 ? 0 : DiskBudgetBytes) {}

PipelineCache::~PipelineCache() = default;

void PipelineCache::insertLocked(uint64_t Hash, std::unique_ptr<Entry> E) {
  auto It = Index.find(Hash);
  if (It != Index.end()) {
    // Same hash already present (either the same key re-stored, or a true
    // 64-bit collision): replace, keeping the map consistent.
    Lru.erase(It->second);
    Index.erase(It);
  }
  Lru.push_front(std::move(E));
  Index[Hash] = Lru.begin();
  while (Lru.size() > MaxEntries) {
    Index.erase(fnv1a64(Lru.back()->Key));
    Lru.pop_back();
    ++Evictions;
  }
}

bool PipelineCache::lookup(const std::string &Key, cfg::Function &F,
                           opt::PipelineStats *Stats) {
  const uint64_t Hash = fnv1a64(Key);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Index.find(Hash);
    if (It != Index.end() && (*It->second)->Key == Key) {
      // Touch: move to the front of the LRU.
      Lru.splice(Lru.begin(), Lru, It->second);
      It->second = Lru.begin();
      ++Hits;
      return applyEntry(**It->second, F, Stats);
    }
  }

  if (!DiskDir.empty()) {
    const std::string Path = pathFor(Hash);
    std::ifstream In(Path, std::ios::binary);
    if (In) {
      std::unique_ptr<Entry> E = deserializeEntry(In);
      if (E && E->Key == Key) {
        In.close();
        // Touch the file so budget eviction (oldest-mtime-first) treats it
        // as recently used; failure (e.g. a racing eviction) is harmless.
        std::error_code Ec;
        std::filesystem::last_write_time(
            Path, std::filesystem::file_time_type::clock::now(), Ec);
        std::lock_guard<std::mutex> Lock(Mu);
        ++DiskHits;
        bool Ok = applyEntry(*E, F, Stats);
        insertLocked(Hash, std::move(E));
        return Ok;
      }
    }
  }

  std::lock_guard<std::mutex> Lock(Mu);
  ++Misses;
  return false;
}

bool PipelineCache::writeDiskFile(uint64_t Hash,
                                  const std::string &Bytes) const {
  const std::string Final = pathFor(Hash);
  std::error_code Ec;
  std::filesystem::create_directories(
      std::filesystem::path(Final).parent_path(), Ec);
  if (Ec)
    return false;
  // Atomic publish: write a private temp file, then rename into place, so
  // concurrent readers - in this process or any other sharing the store -
  // never observe a torn file (writers racing on the same key produce
  // identical bytes by construction). The temp name folds in the pid so
  // two processes cannot collide on it either.
  std::ostringstream UniqueName;
  UniqueName << Final << ".tmp." << ::getpid() << "."
             << reinterpret_cast<uintptr_t>(&Bytes) << "."
             << std::this_thread::get_id();
  const std::string Tmp = UniqueName.str();
  bool Renamed = false;
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (Out) {
      Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
      Out.flush();
      if (Out) {
        Out.close();
        std::filesystem::rename(Tmp, Final, Ec);
        Renamed = !Ec;
      }
    }
  }
  std::filesystem::remove(Tmp, Ec); // no-op after a successful rename
  return Renamed;
}

void PipelineCache::store(const std::string &Key, const cfg::Function &F,
                          const opt::PipelineStats &Delta) {
  auto E = std::make_unique<Entry>();
  E->Key = Key;
  E->Body = F.clone();
  E->Semantic = semanticOnly(Delta);
  const uint64_t Hash = fnv1a64(Key);

  if (!DiskDir.empty()) {
    std::ostringstream Bytes;
    serializeEntry(Bytes, *E);
    const std::string Payload = Bytes.str();
    if (writeDiskFile(Hash, Payload)) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++DiskWrites;
      }
      accountDiskWrite(static_cast<int64_t>(Payload.size()));
    }
  }

  std::lock_guard<std::mutex> Lock(Mu);
  insertLocked(Hash, std::move(E));
}

void PipelineCache::noteVerified(const std::string &Key) {
  const uint64_t Hash = fnv1a64(Key);
  std::string Bytes;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Index.find(Hash);
    if (It == Index.end() || (*It->second)->Key != Key ||
        (*It->second)->Verified)
      return;
    (*It->second)->Verified = true;
    if (!DiskDir.empty()) {
      // Serialize under the lock (the entry could be evicted after it is
      // dropped); the file write itself happens outside.
      std::ostringstream Out;
      serializeEntry(Out, **It->second);
      Bytes = Out.str();
    }
  }
  if (!Bytes.empty() && writeDiskFile(Hash, Bytes)) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++DiskWrites;
    }
    // Rewriting replaces the old file's bytes, but counting the full size
    // again only errs toward earlier eviction; the next scan corrects it.
    accountDiskWrite(static_cast<int64_t>(Bytes.size()));
  }
}

//===----------------------------------------------------------------------===//
// Disk budget
//===----------------------------------------------------------------------===//

void PipelineCache::accountDiskWrite(int64_t Bytes) {
  if (DiskBudget <= 0 || DiskDir.empty())
    return;
  std::lock_guard<std::mutex> Lock(DiskMu);
  if (DiskBytesKnown >= 0)
    DiskBytesKnown += Bytes;
  // Unknown (-1) stays unknown until the first enforcement scan; a shared
  // store may already hold other processes' entries, so incremental
  // accounting alone cannot answer "how big is the store".
  if (DiskBytesKnown < 0 || DiskBytesKnown > DiskBudget)
    enforceBudgetLocked();
}

// Rescans the sharded store and removes oldest-mtime entry files until the
// total fits the budget. Runs under DiskMu only (never Mu), so in-memory
// lookups proceed while a scan walks directories. Racing processes may
// remove the same files; a missing file simply contributes nothing.
void PipelineCache::enforceBudgetLocked() {
  namespace fs = std::filesystem;
  struct File {
    std::string Path;
    fs::file_time_type Mtime;
    int64_t Size;
  };
  std::vector<File> Files;
  int64_t Total = 0;
  std::error_code Ec;
  for (unsigned Shard = 0; Shard < 16; ++Shard) {
    char Sub[4];
    std::snprintf(Sub, sizeof(Sub), "%x", Shard);
    fs::directory_iterator It(DiskDir + "/" + Sub, Ec), End;
    if (Ec) {
      Ec.clear(); // shard not created yet
      continue;
    }
    for (; It != End; It.increment(Ec)) {
      if (Ec)
        break;
      const fs::directory_entry &DE = *It;
      if (DE.path().extension() != ".fn")
        continue; // leave temp files to their writers
      std::error_code StatEc;
      const int64_t Size = static_cast<int64_t>(DE.file_size(StatEc));
      if (StatEc)
        continue; // raced with a removal
      const fs::file_time_type Mtime = DE.last_write_time(StatEc);
      if (StatEc)
        continue;
      Files.push_back({DE.path().string(), Mtime, Size});
      Total += Size;
    }
    Ec.clear();
  }

  DiskBytesKnown = Total;
  if (Total <= DiskBudget)
    return;

  std::sort(Files.begin(), Files.end(),
            [](const File &A, const File &B) { return A.Mtime < B.Mtime; });
  for (const File &F : Files) {
    if (DiskBytesKnown <= DiskBudget)
      break;
    std::error_code RmEc;
    fs::remove(F.Path, RmEc);
    // Already-gone counts too: another process evicted it, but either way
    // those bytes no longer exist.
    DiskBytesKnown -= F.Size;
    ++DiskEvictions;
  }
}

bool PipelineCache::wasVerified(const std::string &Key) const {
  const uint64_t Hash = fnv1a64(Key);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Hash);
  return It != Index.end() && (*It->second)->Key == Key &&
         (*It->second)->Verified;
}

int64_t PipelineCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Hits;
}
int64_t PipelineCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Misses;
}
int64_t PipelineCache::evictions() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Evictions;
}
int64_t PipelineCache::diskHits() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return DiskHits;
}
int64_t PipelineCache::diskWrites() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return DiskWrites;
}
int64_t PipelineCache::diskEvictions() const {
  std::lock_guard<std::mutex> Lock(DiskMu);
  return DiskEvictions;
}
int64_t PipelineCache::diskBytes() const {
  std::lock_guard<std::mutex> Lock(DiskMu);
  return DiskBytesKnown;
}
size_t PipelineCache::entries() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Lru.size();
}
size_t PipelineCache::verifiedEntries() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const auto &E : Lru)
    N += E->Verified ? 1 : 0;
  return N;
}

void PipelineCache::publishMetrics(obs::MetricsRegistry &M) const {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    M.set("pipeline_cache.entries", static_cast<int64_t>(Lru.size()));
    M.set("pipeline_cache.evictions", Evictions);
    M.set("pipeline_cache.disk_hits", DiskHits);
    M.set("pipeline_cache.disk_writes", DiskWrites);
    int64_t Verified = 0;
    for (const auto &E : Lru)
      Verified += E->Verified ? 1 : 0;
    M.set("pipeline_cache.verified_entries", Verified);
  }
  std::lock_guard<std::mutex> Lock(DiskMu);
  M.set("pipeline_cache.disk_evictions", DiskEvictions);
  if (DiskBytesKnown >= 0)
    M.set("pipeline_cache.disk_bytes", DiskBytesKnown);
}
