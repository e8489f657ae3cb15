//===- cache/ResultCache.h - The assembled optimization result cache -----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The subsystem facade the server and the corpus driver use: an in-memory
/// LRU striped over 8 mutexes (L1), an optional persistent spill directory
/// (L2), and single-flight deduplication for concurrent identical misses,
/// behind one call:
///
///   ResultCache::Lookup L = Cache.getOrCompute(Key, Cancel, Compute);
///
/// The lookup order is L1 -> L2 (promoting disk hits into memory) ->
/// single-flight compute (the leader fills both tiers on success).  The
/// Source of the result tells the caller whether the pipeline actually ran
/// for *this* call — the server's `cached` response field is exactly
/// `Source != Computed`.
///
/// Soundness rests on content addressing (cache/ContentHash.h): the key
/// covers the canonical IR and every configuration bit that can change the
/// output, so a hit may be served bit-identically without re-validation.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_CACHE_RESULTCACHE_H
#define LCM_CACHE_RESULTCACHE_H

#include <array>
#include <memory>
#include <string>

#include "cache/ByteLru.h"
#include "cache/ContentHash.h"
#include "cache/DiskCache.h"
#include "cache/SingleFlight.h"

namespace lcm {
namespace cache {

struct ResultCacheConfig {
  /// In-memory tier byte budget, split evenly over its stripes.
  size_t MemoryBytes = 64u << 20;
  /// Persistent spill directory; empty disables the disk tier.
  std::string DiskDir;
  /// Disk tier byte cap.
  size_t DiskBytes = 256u << 20;
};

class ResultCache {
public:
  explicit ResultCache(ResultCacheConfig Config);

  /// Opens the disk tier (if configured): creates the directory, drops
  /// stale-version entries, prunes to budget.  False with \p Error on an
  /// unusable directory.  Must be called once before use when DiskDir is
  /// set; a ResultCache without a disk dir needs no open().
  bool open(std::string &Error);

  /// How a lookup was satisfied.
  enum class Source {
    Memory,    ///< L1 hit.
    Disk,      ///< L2 hit (now promoted to L1).
    Coalesced, ///< Joined a concurrent identical computation.
    Computed,  ///< This call ran Compute (the pipeline).
  };

  struct Lookup {
    Source Src = Source::Computed;
    SingleFlight::Result R;

    bool ok() const { return R.K == SingleFlight::Result::Kind::Value; }
    bool cached() const { return ok() && Src != Source::Computed; }
  };

  /// The full cache protocol: L1, then L2, then single-flight around
  /// \p Compute.  A successful computation is inserted into both tiers
  /// before followers are woken, so every coalesced/later request sees it.
  /// \p Cancel bounds this caller's wait and should be the same token
  /// \p Compute honors.
  Lookup getOrCompute(const Digest &Key, const CancelToken *Cancel,
                      const std::function<SingleFlight::Result()> &Compute);

  /// Direct probe of both tiers (no compute, no single-flight) — the
  /// corpus driver's read path and the tests' inspection hook.
  bool get(const Digest &Key, CacheEntry &Out);

  /// Direct insert into both tiers.
  void put(const Digest &Key, const CacheEntry &Entry);

  using MemoryLru = ByteLru<CacheEntry>;

  /// Aggregated counters of all three components.
  struct Stats {
    MemoryLru::Stats Memory; ///< Summed over the stripes.
    DiskCache::Stats Disk;
    SingleFlight::Stats Flight;
    bool HasDisk = false;
  };
  Stats stats() const;

  /// One-line human summary ("hits=... misses=...") for drain logs.
  std::string summary() const;

private:
  /// Mutex stripes of the memory tier: the server's workers touch the same
  /// stripe only when their key digests land in it, 1/8 of the time for
  /// distinct programs.
  static constexpr size_t NumStripes = 8;
  MemoryLru &stripeFor(const Digest &Key) {
    return *Memory[size_t(Key.Hi) & (NumStripes - 1)];
  }

  std::array<std::unique_ptr<MemoryLru>, NumStripes> Memory;
  std::unique_ptr<DiskCache> Disk;
  SingleFlight Flight;
};

} // namespace cache
} // namespace lcm

#endif // LCM_CACHE_RESULTCACHE_H
