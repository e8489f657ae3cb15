//===- lcmbench/Common.h - Run options, metrics and timing helpers -------===//

#ifndef LCMBENCH_COMMON_H
#define LCMBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "Inputs.h"
#include "Spans.h"
#include "support/Json.h"

namespace lcmbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory holding lcm_serve and lcm_router: lcmbench's own.
  std::string BinDir;
  /// Where the traced run writes its spans.
  std::string TracePath;
};

/// An untraced run measures in several fresh processes in turn (fresh
/// servers for the socket workloads), each for an equal share of the run.
/// On a shared VM a process's speed depends on where it lands and
/// splits into modes some 30% apart, so a run reports, per figure, the
/// trimmed mean over its processes (trimmedMean below), and for setup_s
/// the median.
inline constexpr unsigned CompileProcesses = 10;
inline constexpr unsigned ServingProcesses = 5;
/// A measuring process runs past its share of the run, by whole rounds,
/// until it has this many latency samples, so its p99 has ten beyond it.
inline constexpr size_t MinSamples = 1000;

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

/// Everything one run prints.
struct RunReport {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::vector<Metric> Metrics;
  lcm::json::Value Accounting = lcm::json::Value::object();
  lcm::json::Value Stamp = lcm::json::Value::object();

  /// A check failed: the run's outputs are not correct.
  void wrong(const std::string &Why) {
    Correct = false;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
  void add(const std::string &Name, const std::string &Unit, double V) {
    Metrics.push_back({Name, Unit, V});
  }
};

/// Mean of \p V without its lowest and highest fifth.
inline double trimmedMean(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t Drop = V.size() / 5;
  double Sum = 0;
  for (size_t I = Drop; I != V.size() - Drop; ++I)
    Sum += V[I];
  return Sum / double(V.size() - 2 * Drop);
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile of an already sorted vector.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  size_t Rank = size_t(P / 100.0 * double(Sorted.size()) + 0.999999);
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

/// Closed-loop timing record: per-operation latencies plus completions in
/// fixed-width windows from the start of the timed phase.
class OpLog {
public:
  void start(Clock::time_point T0, double WindowSeconds) {
    Start = T0;
    Width = WindowSeconds;
  }
  void record(Clock::time_point Begin, Clock::time_point End) {
    LatMs.push_back(std::chrono::duration<double, std::milli>(End - Begin)
                        .count());
    const size_t W = size_t(secondsBetween(Start, End) / Width);
    if (Windows.size() <= W)
      Windows.resize(W + 1, 0);
    ++Windows[W];
  }
  /// Appends another thread's log (same start and width).
  void merge(const OpLog &O) {
    LatMs.insert(LatMs.end(), O.LatMs.begin(), O.LatMs.end());
    if (Windows.size() < O.Windows.size())
      Windows.resize(O.Windows.size(), 0);
    for (size_t I = 0; I != O.Windows.size(); ++I)
      Windows[I] += O.Windows[I];
  }
  /// Rates of the windows that lie wholly inside [Start, End).
  std::vector<double> windowRates(Clock::time_point End) const {
    const size_t Full =
        std::min(Windows.size(), size_t(secondsBetween(Start, End) / Width));
    std::vector<double> Rates;
    for (size_t I = 0; I != Full; ++I)
      Rates.push_back(double(Windows[I]) / Width);
    return Rates;
  }
  std::vector<double> &latencies() { return LatMs; }
  size_t ops() const { return LatMs.size(); }

private:
  Clock::time_point Start;
  double Width = 0.5;
  std::vector<double> LatMs;
  std::vector<uint64_t> Windows;
};

/// The timing figures of each measuring process.  The run reports, for
/// each, the trimmed mean over processes: a stall of the host, or a
/// process that landed on a slow CPU, moves one process's figures, not
/// the run's.
struct ProcessFigures {
  std::vector<double> OpsPerS, P50Ms, P99Ms, CpuUsPerOp, PeakRssMiB, SetupS;
  /// \p Rates are the process's per-window (or per-round) rates; its
  /// ops_per_s is their median.
  void add(std::vector<double> LatMs, const std::vector<double> &Rates,
           double CpuSeconds, double RssMiB, double Setup);
};
/// Adds ops_per_s, p50_ms, p99_ms, cpu_us_per_op, peak_rss_mb and setup_s.
void addTimingMetrics(RunReport &R, const ProcessFigures &F);

/// Adds dyn_evals, static_instrs and temp_live_slots from the checked
/// reference outputs.
struct QualityCounts;
void addQualityMetrics(RunReport &R, const QualityCounts &Q);

/// The traced run's per-layer probe (Layers.cpp).  \p Programs are the
/// workload's own inputs; \p Edits its one-block edits as (before, after,
/// edited block label) triples.
struct EditSample {
  std::string Before;
  std::string After;
  std::string Label;
};
struct SocketLayerFigures {
  bool HaveFleetCache = false; ///< cache.hit_ratio/evictions/router/retries
  double HitRatio = 0, EvictionsPerKreq = 0, RouterHitRatio = 0;
  double Retries = 0, Failovers = 0;
  bool HaveEdits = false; ///< retained hits and fns re-optimized
  double RetainedHitsPerEdit = 0, FnsReoptimizedPerEdit = 0;
};
bool runLayerProbe(const RunOptions &O, const std::vector<Program> &Programs,
                   const std::vector<EditSample> &Edits,
                   const SocketLayerFigures &Own, Tracer &T, RunReport &R);

/// A string member of a response, or null.
inline const std::string *findString(const lcm::json::Value &V,
                                     const char *Key) {
  const lcm::json::Value *F = V.find(Key);
  return F && F->isString() ? &F->asString() : nullptr;
}

/// Entries of a module response's `functions` array answered with
/// `cached: false`: the functions the request re-optimized.
uint64_t functionsReoptimized(const lcm::json::Value &Response);

/// Workload entry points.
void runCompileBatch(const RunOptions &O, RunReport &R);
void runServeFleet(const RunOptions &O, RunReport &R);
void runEditLoop(const RunOptions &O, RunReport &R);

/// compile_batch's measuring process (lcmbench --measure-child): generates
/// its inputs, warms up, prints `ready`, measures for O.Seconds and prints
/// its samples and outputs as one JSON line.
int compileBatchMeasureChild(const RunOptions &O);

} // namespace lcmbench

#endif // LCMBENCH_COMMON_H
