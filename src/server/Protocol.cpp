//===- Protocol.cpp - Compile-server wire protocol ------------------------===//

#include "server/Protocol.h"

#include <cstdio>
#include <sstream>

using namespace coderep;
using namespace coderep::server;

opt::PipelineOptions
CompileRequest::pipelineOptions(const opt::PipelineOptions &Base) const {
  opt::PipelineOptions O = Base;
  O.Level = Level;
  O.Replication.MaxSequenceRtls = MaxSequenceRtls;
  O.Replication.MaxGrowthFactor = MaxGrowthFactor;
  O.Replication.MaxReplacements = MaxReplacements;
  O.Replication.Heuristic = static_cast<replicate::PathChoice>(Heuristic);
  O.Replication.AllowIndirectEndings = AllowIndirectEndings;
  return O;
}

//===----------------------------------------------------------------------===//
// Codec helpers
//===----------------------------------------------------------------------===//

namespace {

/// Writes a length-prefixed blob: "<tag> <len>\n<bytes>\n". The trailing
/// newline is decorative (the length governs), keeping payloads greppable.
void writeBlob(std::ostream &Out, const char *Tag, const std::string &Bytes) {
  Out << Tag << " " << Bytes.size() << "\n" << Bytes << "\n";
}

/// Reads the blob written by writeBlob after the tag word was consumed.
bool readBlob(std::istream &In, std::string &Out, size_t MaxLen) {
  size_t Len = 0;
  if (!(In >> Len) || Len > MaxLen)
    return false;
  In.get(); // the newline after the length
  Out.assign(Len, '\0');
  if (Len > 0 && !In.read(Out.data(), static_cast<std::streamsize>(Len)))
    return false;
  return In.get() == '\n'; // the decorative trailer
}

bool fail(std::string &Err, const char *Why) {
  Err = Why;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Request
//===----------------------------------------------------------------------===//

std::string server::encodeRequest(const CompileRequest &R) {
  char GrowthHex[64];
  // %a is exact for doubles, matching the function-cache key discipline.
  std::snprintf(GrowthHex, sizeof(GrowthHex), "%a", R.MaxGrowthFactor);

  std::ostringstream Out;
  Out << "coderep-req " << ProtocolVersion << "\n"
      << "target " << targetWireName(R.Target) << "\n"
      << "level " << levelWireName(R.Level) << "\n"
      << "maxseq " << R.MaxSequenceRtls << "\n"
      << "growth " << GrowthHex << "\n"
      << "maxrepl " << R.MaxReplacements << "\n"
      << "heuristic " << R.Heuristic << "\n"
      << "indirect " << (R.AllowIndirectEndings ? 1 : 0) << "\n";
  writeBlob(Out, "name", R.Name);
  writeBlob(Out, "source", R.Source);
  return Out.str();
}

bool server::decodeRequest(const std::string &Payload, CompileRequest &Out,
                           std::string &Err) {
  std::istringstream In(Payload);
  std::string Word;
  int Version = 0;
  if (!(In >> Word >> Version) || Word != "coderep-req")
    return fail(Err, "bad request magic");
  if (Version != ProtocolVersion)
    return fail(Err, "unsupported request version");

  std::string Target, Level, Growth;
  int Indirect = 0;
  if (!(In >> Word >> Target) || Word != "target" ||
      !parseTargetWireName(Target, Out.Target))
    return fail(Err, "bad target");
  if (!(In >> Word >> Level) || Word != "level" ||
      !parseLevelWireName(Level, Out.Level))
    return fail(Err, "bad level");
  if (!(In >> Word >> Out.MaxSequenceRtls) || Word != "maxseq")
    return fail(Err, "bad maxseq");
  if (!(In >> Word >> Growth) || Word != "growth")
    return fail(Err, "bad growth");
  if (std::sscanf(Growth.c_str(), "%la", &Out.MaxGrowthFactor) != 1)
    return fail(Err, "bad growth value");
  if (!(In >> Word >> Out.MaxReplacements) || Word != "maxrepl")
    return fail(Err, "bad maxrepl");
  if (!(In >> Word >> Out.Heuristic) || Word != "heuristic" ||
      Out.Heuristic < 0 || Out.Heuristic > 2)
    return fail(Err, "bad heuristic");
  if (!(In >> Word >> Indirect) || Word != "indirect")
    return fail(Err, "bad indirect");
  Out.AllowIndirectEndings = Indirect != 0;
  if (!(In >> Word) || Word != "name" || !readBlob(In, Out.Name, 1u << 16))
    return fail(Err, "bad name blob");
  if (!(In >> Word) || Word != "source" ||
      !readBlob(In, Out.Source, MaxFrameBytes))
    return fail(Err, "bad source blob");
  return true;
}

//===----------------------------------------------------------------------===//
// Response
//===----------------------------------------------------------------------===//

std::string server::encodeResponse(const CompileResponse &R) {
  std::ostringstream Out;
  Out << "coderep-resp " << ProtocolVersion << "\n"
      << "status " << (R.Ok ? "ok" : "error") << "\n"
      << "queue_us " << R.QueueUs << "\n"
      << "compile_us " << R.CompileUs << "\n"
      << "fn_cache_hits " << R.FnCacheHits << "\n"
      << "fn_cache_misses " << R.FnCacheMisses << "\n";
  writeBlob(Out, "error", R.Error);
  writeBlob(Out, "rtl", R.Rtl);
  return Out.str();
}

bool server::decodeResponse(const std::string &Payload, CompileResponse &Out,
                            std::string &Err) {
  std::istringstream In(Payload);
  std::string Word, Status;
  int Version = 0;
  if (!(In >> Word >> Version) || Word != "coderep-resp")
    return fail(Err, "bad response magic");
  if (Version != ProtocolVersion)
    return fail(Err, "unsupported response version");
  if (!(In >> Word >> Status) || Word != "status" ||
      (Status != "ok" && Status != "error"))
    return fail(Err, "bad status");
  Out.Ok = Status == "ok";
  if (!(In >> Word >> Out.QueueUs) || Word != "queue_us")
    return fail(Err, "bad queue_us");
  if (!(In >> Word >> Out.CompileUs) || Word != "compile_us")
    return fail(Err, "bad compile_us");
  if (!(In >> Word >> Out.FnCacheHits) || Word != "fn_cache_hits")
    return fail(Err, "bad fn_cache_hits");
  if (!(In >> Word >> Out.FnCacheMisses) || Word != "fn_cache_misses")
    return fail(Err, "bad fn_cache_misses");
  if (!(In >> Word) || Word != "error" ||
      !readBlob(In, Out.Error, MaxFrameBytes))
    return fail(Err, "bad error blob");
  if (!(In >> Word) || Word != "rtl" || !readBlob(In, Out.Rtl, MaxFrameBytes))
    return fail(Err, "bad rtl blob");
  return true;
}
