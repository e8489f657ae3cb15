//===- cache/CacheEntry.h - One cached optimization result ---------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//

#ifndef LCM_CACHE_CACHEENTRY_H
#define LCM_CACHE_CACHEENTRY_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace lcm {
namespace cache {

/// One cached optimization result: everything needed to answer a request
/// (or replace a corpus function) without running the pipeline.
struct CacheEntry {
  /// Canonical optimized IR text.
  std::string Ir;
  /// Summed pipeline "changes made".
  uint64_t Changes = 0;
  /// The entry was produced under `check: true` with this many seeds.
  bool Checked = false;
  unsigned CheckRuns = 0;
  /// Compact lcm-run-report-v1 JSON when the request asked for one;
  /// empty otherwise.
  std::string ReportJson;
  /// Compact lcm-profile-v1 JSON measured from the check runs of the
  /// original program (`check: true` requests only); empty otherwise.
  /// Served back as the response's `profile_out` field so a client can
  /// close the profile loop without instrumenting anything itself.
  std::string ProfileJson;

  /// Budget charge: payload bytes plus a fixed overhead estimate for the
  /// index/list bookkeeping.
  size_t bytes() const {
    return Ir.size() + ReportJson.size() + ProfileJson.size() + 96;
  }
};

} // namespace cache
} // namespace lcm

#endif // LCM_CACHE_CACHEENTRY_H
