//===- cache/ByteLru.h - The one byte-budgeted LRU -----------------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LRU behind every in-memory cache of the system: each of the result
/// cache's memory stripes (cache/ResultCache.h), the retained-IR tier
/// (cache/RetainedIr.h) and the router's response cache (server/Router.h).
/// One mutex guards a recency list plus a digest index; each entry stores
/// the byte charge it was admitted with, and the budget is kept in those
/// charges, not in entry counts, because IR texts vary by orders of
/// magnitude.
///
/// One put rule: an entry larger than the whole budget is not admitted
/// (caching it would evict everything for one unlikely-to-repeat giant);
/// otherwise any incumbent under the key is removed, cold entries are
/// evicted until the new one fits, and it is inserted most-recently-used.
/// The budget therefore holds after every put, refreshes included.
///
/// get() copies the value out under the lock, so a caller never holds a
/// reference into an entry another thread may evict.  Counters are kept
/// locally (stats()) and, for the names given at construction, in the
/// global Stats registry, bumped after the lock is released.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_CACHE_BYTELRU_H
#define LCM_CACHE_BYTELRU_H

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "cache/ContentHash.h"
#include "support/Stats.h"

namespace lcm {
namespace cache {

template <typename V> class ByteLru {
public:
  /// Global Stats counters bumped alongside the local ones; a null name is
  /// not bumped.
  struct StatNames {
    const char *Hits = nullptr;
    const char *Misses = nullptr;
    const char *Insertions = nullptr;
    const char *Evictions = nullptr;
  };

  /// Monotonic counters plus the current footprint.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t BytesResident = 0;
    uint64_t Entries = 0;
  };

  /// A \p MaxBytes of 0 admits no entry of nonzero charge.
  explicit ByteLru(size_t MaxBytes, StatNames Names = {})
      : MaxBytes(MaxBytes), Names(Names) {}

  /// Copies the value out and marks it most-recently-used.  False on miss.
  bool get(const Digest &Key, V &Out) {
    bool Hit = false;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Index.find(Key);
      if (It != Index.end()) {
        Lru.splice(Lru.begin(), Lru, It->second);
        Out = It->second->Value;
        Hit = true;
        ++Counters.Hits;
      } else {
        ++Counters.Misses;
      }
    }
    bump(Hit ? Names.Hits : Names.Misses, 1);
    return Hit;
  }

  /// Inserts \p Value under \p Key, charged \p Bytes (the put rule above).
  void put(const Digest &Key, V Value, size_t Bytes) {
    if (Bytes > MaxBytes)
      return;
    uint64_t Evicted = 0;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Index.find(Key);
      if (It != Index.end()) {
        Counters.BytesResident -= It->second->Bytes;
        Lru.erase(It->second);
        Index.erase(It);
      }
      while (Counters.BytesResident + Bytes > MaxBytes) {
        const Node &Cold = Lru.back();
        Counters.BytesResident -= Cold.Bytes;
        Index.erase(Cold.Key);
        Lru.pop_back();
        ++Evicted;
      }
      Lru.push_front(Node{Key, std::move(Value), Bytes});
      Index.emplace(Key, Lru.begin());
      Counters.BytesResident += Bytes;
      Counters.Entries = Index.size();
      Counters.Evictions += Evicted;
      ++Counters.Insertions;
    }
    bump(Names.Insertions, 1);
    bump(Names.Evictions, Evicted);
  }

  /// put() charged by the value's own bytes().
  void put(const Digest &Key, V Value) {
    const size_t Bytes = Value.bytes();
    put(Key, std::move(Value), Bytes);
  }

  Stats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Counters;
  }

private:
  struct Node {
    Digest Key;
    V Value;
    size_t Bytes;
  };

  static void bump(const char *Name, uint64_t Delta) {
    if (Name && Delta != 0)
      lcm::Stats::bump(Name, Delta);
  }

  const size_t MaxBytes;
  const StatNames Names;
  mutable std::mutex Mu;
  std::list<Node> Lru; ///< Front = most recently used.
  std::unordered_map<Digest, typename std::list<Node>::iterator, DigestHash>
      Index;
  Stats Counters; ///< BytesResident and Entries track the list.
};

} // namespace cache
} // namespace lcm

#endif // LCM_CACHE_BYTELRU_H
