//===- ScopedTimer.h - RAII span timing -------------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII timing for a span of work. One ScopedTimer serves both consumers
/// of phase timing: it emits a begin/end event pair into a TraceSink (when
/// one is attached) and adds the elapsed microseconds to an accumulator
/// (when one is given) - the pipeline's PhaseMicros counters are such
/// accumulators. With neither, construction and destruction do no work at
/// all: no clock read, no allocation. The name is copied into an owned
/// string only when an event will be recorded, so an untraced span
/// allocates nothing for it, however long the literal. A sink whose
/// events are muted (TraceSink::setEventsEnabled(false)) counts as absent:
/// the muted configuration is the always-on-telemetry deployment, and
/// spans must cost nothing there beyond what an accumulator demands.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OBS_SCOPEDTIMER_H
#define CODEREP_OBS_SCOPEDTIMER_H

#include "obs/Trace.h"

#include <chrono>
#include <string_view>

namespace coderep::obs {

/// Times a scope; see file comment. Movable-from never, copyable never:
/// one object, one span.
class ScopedTimer {
public:
  /// \p Sink may be null (no events). \p AccumUs may be null (no
  /// accumulation). \p Args is the begin-event's JSON args body.
  ScopedTimer(TraceSink *Sink, std::string_view Name,
              int64_t *AccumUs = nullptr, std::string Args = {})
      : Sink(Sink && Sink->eventsEnabled() ? Sink : nullptr),
        AccumUs(AccumUs) {
    Sink = this->Sink;
    if (!Sink && !AccumUs)
      return;
    Start = std::chrono::steady_clock::now();
    if (Sink) {
      this->Name = Name;
      Sink->begin(this->Name, std::move(Args));
    }
  }

  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

  /// Microseconds since construction; 0 for a fully-disabled timer (so
  /// callers can feed it to a histogram without their own clock reads).
  int64_t elapsedUs() const {
    if (!Sink && !AccumUs)
      return 0;
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

  ~ScopedTimer() {
    if (AccumUs)
      *AccumUs += std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    if (Sink)
      Sink->end(Name);
  }

private:
  TraceSink *Sink = nullptr;
  int64_t *AccumUs = nullptr;
  std::string Name;
  std::chrono::steady_clock::time_point Start;
};

} // namespace coderep::obs

#endif // CODEREP_OBS_SCOPEDTIMER_H
