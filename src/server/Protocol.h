//===- Protocol.h - Compile-server wire protocol ----------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol codrepd speaks over its Unix-domain
/// socket. Transport framing is a 4-byte little-endian payload length
/// followed by that many payload bytes (Socket.h owns the framing); this
/// header owns the payload codec.
///
/// Payloads are line-oriented text in the style of the CompileCache disk
/// codec: a versioned magic line, structured "key value" lines, and
/// length-prefixed free-form blobs (source text, RTL text, error text) so
/// arbitrary bytes cannot be confused with the structured header. Decoders
/// validate eagerly and reject on any mismatch, so a torn or hostile frame
/// degrades to a protocol error, never to undefined behavior.
///
/// A request carries MiniC source, the target, the optimization level, and
/// the byte-relevant subset of the replication tunables (the same fields
/// the function-cache key folds in, so two clients asking for the same
/// semantics share cache entries). A response carries the emitted RTL text
/// - byte-identical to what one-shot driver::compile produces for the same
/// inputs - plus per-request serving stats (queue wait, compile time,
/// function-cache hits/misses).
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SERVER_PROTOCOL_H
#define CODEREP_SERVER_PROTOCOL_H

#include "opt/Pipeline.h"
#include "target/Target.h"

#include <cstdint>
#include <string>

namespace coderep::server {

/// Protocol version spoken by this build; bumped on any codec change.
inline constexpr int ProtocolVersion = 1;

/// Frames larger than this are rejected as malformed (both directions).
inline constexpr uint32_t MaxFrameBytes = 64u << 20;

/// One compile request: source + target + the semantic options subset.
struct CompileRequest {
  std::string Name;   ///< client label for journals/logs (may be empty)
  std::string Source; ///< MiniC source text
  target::TargetKind Target = target::TargetKind::Sparc;
  opt::OptLevel Level = opt::OptLevel::Jumps;

  /// Byte-relevant replication tunables (defaults mirror
  /// replicate::ReplicationOptions).
  int64_t MaxSequenceRtls = -1;
  double MaxGrowthFactor = 8.0;
  int MaxReplacements = 2000;
  int Heuristic = 0; ///< replicate::PathChoice as int
  bool AllowIndirectEndings = false;

  /// Materializes the request's semantics on top of \p Base (which carries
  /// the server-side non-semantic knobs: cache pointer, trace, jobs).
  opt::PipelineOptions pipelineOptions(const opt::PipelineOptions &Base) const;
};

/// One compile response: the emitted RTL text plus serving stats.
struct CompileResponse {
  bool Ok = false;
  std::string Error; ///< compile or protocol error (when !Ok)
  std::string Rtl;   ///< cfg::toString of the optimized program (when Ok)

  // Per-request serving stats.
  int64_t QueueUs = 0;   ///< wait between enqueue and worker pickup
  int64_t CompileUs = 0; ///< wall-clock inside driver::compile
  int FnCacheHits = 0;   ///< function-cache hits this request
  int FnCacheMisses = 0; ///< function-cache misses this request
};

/// Renders \p R as a protocol payload.
std::string encodeRequest(const CompileRequest &R);

/// Parses a request payload; returns false and sets \p Err on malformed
/// input. \p Out is unspecified on failure.
bool decodeRequest(const std::string &Payload, CompileRequest &Out,
                   std::string &Err);

/// Renders \p R as a protocol payload.
std::string encodeResponse(const CompileResponse &R);

/// Parses a response payload; returns false and sets \p Err on malformed
/// input. \p Out is unspecified on failure.
bool decodeResponse(const std::string &Payload, CompileResponse &Out,
                    std::string &Err);

// The wire names of targets and levels are their target::TargetNames and
// opt::OptLevelNames entries, the spellings of --target= and --level=.

/// "sparc" / "m68" for the wire format and logs.
inline const char *targetWireName(target::TargetKind TK) {
  return target::targetName(TK);
}

/// Parses a wire target name; returns false on unknown names.
inline bool parseTargetWireName(const std::string &Name,
                                target::TargetKind &TK) {
  return support::valueOf(target::TargetNames, Name, TK);
}

/// "simple" / "loops" / "jumps" for the wire format and logs.
inline const char *levelWireName(opt::OptLevel Level) {
  return support::nameOf(opt::OptLevelNames, Level);
}

/// Parses a wire level name; returns false on unknown names.
inline bool parseLevelWireName(const std::string &Name, opt::OptLevel &Level) {
  return support::valueOf(opt::OptLevelNames, Name, Level);
}

} // namespace coderep::server

#endif // CODEREP_SERVER_PROTOCOL_H
