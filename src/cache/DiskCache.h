//===- cache/DiskCache.h - Persistent spill tier of the result cache -----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optional persistence for the result cache: one file per entry under a
/// cache directory, so a warmed cache survives daemon restarts.  Layout
/// and invariants (docs/CACHE.md):
///
/// - filenames are `v<stamp>-<32-hex-key>.lcmc`, where `<stamp>` is the
///   CacheSchemaVersion the entry was written under.  A version bump makes
///   every old entry visibly stale *from its name alone*: open() unlinks
///   them without reading a byte (self-invalidation);
/// - each file is a JSON document (schema "lcm-cache-entry-v1") that
///   repeats the version and full key, which get() re-verifies before
///   trusting the payload — a corrupt or mismatched file is deleted and
///   treated as a miss, never an error;
/// - writes go to a temp file in the same directory followed by an atomic
///   rename(), so readers (including a concurrently restarting daemon)
///   never observe a torn entry;
/// - the directory is size-capped: open() prunes least-recently-used
///   entries (by mtime) over the budget, and put() keeps a running total
///   and prunes again when it overflows.  get() bumps the file's mtime so
///   recency survives restarts.
///
/// The class is thread-safe; a single mutex covers the (cheap) bookkeeping
/// while file I/O happens outside it where possible.  It is an *L2*: the
/// in-memory tier absorbs the hot keys, so disk traffic is dominated by
/// warm-up and capacity misses.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_CACHE_DISKCACHE_H
#define LCM_CACHE_DISKCACHE_H

#include <cstdint>
#include <mutex>
#include <string>

#include "cache/ContentHash.h"
#include "cache/CacheEntry.h"

namespace lcm {
namespace cache {

class DiskCache {
public:
  struct Options {
    /// Cache directory; created (one level) if absent.
    std::string Dir;
    /// Byte cap over all entry files; LRU-pruned by mtime.
    size_t MaxBytes = 256u << 20;
  };

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Writes = 0;
    /// Entries removed to respect MaxBytes.
    uint64_t Pruned = 0;
    /// Stale (old-version or corrupt) entries deleted.
    uint64_t Invalidated = 0;
    uint64_t BytesResident = 0;
  };

  explicit DiskCache(Options Opts);

  /// Creates the directory if needed, deletes entries written under a
  /// different CacheSchemaVersion, and prunes to the byte budget.  False
  /// with \p Error set when the directory cannot be created or scanned.
  bool open(std::string &Error);

  /// Loads \p Key if present and valid; bumps its recency.  A corrupt or
  /// mismatched file is unlinked and reported as a miss.
  bool get(const Digest &Key, CacheEntry &Out);

  /// Persists \p Entry under \p Key (atomic rename).  I/O failures are
  /// swallowed — the disk tier is best-effort; the computation already
  /// succeeded.
  void put(const Digest &Key, const CacheEntry &Entry);

  Stats stats() const;
  const std::string &dir() const { return Opts.Dir; }

private:
  std::string pathFor(const Digest &Key) const;
  void pruneLocked();

  Options Opts;
  mutable std::mutex Mu;
  bool Opened = false;
  uint64_t Bytes = 0;

  uint64_t NumHits = 0;
  uint64_t NumMisses = 0;
  uint64_t NumWrites = 0;
  uint64_t NumPruned = 0;
  uint64_t NumInvalidated = 0;
};

} // namespace cache
} // namespace lcm

#endif // LCM_CACHE_DISKCACHE_H
