//===- Metrics.h - Named metric counters ------------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe registry of named 64-bit counters: the flat-metrics half
/// of the observability layer. Producers add deltas under dotted names
/// ("replicate.sp_rows_computed", "pipeline.quiescent_rounds"); consumers
/// snapshot the whole registry or export it as a JSON object with keys in
/// sorted order, so two runs of a deterministic workload produce
/// byte-identical metrics files.
///
/// Each entry carries a kind - "counter" for add()ed deltas, "gauge" for
/// set() values - and a unit inferred from the dotted-name suffix (_us,
/// _bytes, otherwise a plain count). Both are emitted per entry in the
/// typed metrics JSON so downstream consumers (bench_report, the future
/// compile-server dashboard) don't have to re-guess semantics from names.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OBS_METRICS_H
#define CODEREP_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace coderep::obs {

/// One metric with its export semantics.
struct MetricEntry {
  int64_t Value = 0;
  bool Gauge = false; ///< last write was set() rather than add()
};

/// Unit string inferred from a metric's dotted name: "us" for a *_us
/// suffix or a "_us." path component ("pass_us.code motion"), "bytes"
/// likewise, otherwise "count". Shared by the metrics JSON export and the
/// histogram export so the two halves agree.
inline const char *metricUnit(const std::string &Name) {
  auto tagged = [&](const char *Suffix) {
    size_t N = std::char_traits<char>::length(Suffix);
    if (Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0)
      return true;
    return Name.find(std::string(Suffix) + ".") != std::string::npos;
  };
  if (tagged("_us"))
    return "us";
  if (tagged("_bytes"))
    return "bytes";
  return "count";
}

/// Thread-safe name -> int64 counter map.
class MetricsRegistry {
public:
  /// Adds \p Delta to the counter \p Name (creating it at zero).
  void add(const std::string &Name, int64_t Delta) {
    std::lock_guard<std::mutex> Lock(Mu);
    Values[Name].Value += Delta;
  }

  /// Overwrites \p Name and marks it a gauge.
  void set(const std::string &Name, int64_t Value) {
    std::lock_guard<std::mutex> Lock(Mu);
    Values[Name] = {Value, /*Gauge=*/true};
  }

  /// Current value of \p Name; 0 when never written.
  int64_t value(const std::string &Name) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Values.find(Name);
    return It == Values.end() ? 0 : It->second.Value;
  }

  /// Copy of the whole registry as plain values, keys sorted.
  std::map<std::string, int64_t> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    std::map<std::string, int64_t> Out;
    for (const auto &[Name, E] : Values)
      Out.emplace(Name, E.Value);
    return Out;
  }

  /// Copy of the whole registry with kinds, keys sorted.
  std::map<std::string, MetricEntry> snapshotTyped() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Values;
  }

private:
  mutable std::mutex Mu;
  std::map<std::string, MetricEntry> Values;
};

} // namespace coderep::obs

#endif // CODEREP_OBS_METRICS_H
