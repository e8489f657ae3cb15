//===- cache/ResultCache.cpp -----------------------------------------------===//

#include "cache/ResultCache.h"

#include <cstdio>

using namespace lcm;
using namespace lcm::cache;

ResultCache::ResultCache(ResultCacheConfig Config) {
  for (auto &Stripe : Memory)
    Stripe = std::make_unique<MemoryLru>(
        Config.MemoryBytes / NumStripes,
        MemoryLru::StatNames{"cache.mem.hits", "cache.mem.misses",
                             "cache.mem.insertions", "cache.mem.evictions"});
  if (!Config.DiskDir.empty())
    Disk = std::make_unique<DiskCache>(
        DiskCache::Options{Config.DiskDir, Config.DiskBytes});
}

bool ResultCache::open(std::string &Error) {
  return !Disk || Disk->open(Error);
}

bool ResultCache::get(const Digest &Key, CacheEntry &Out) {
  if (stripeFor(Key).get(Key, Out))
    return true;
  if (Disk && Disk->get(Key, Out)) {
    stripeFor(Key).put(Key, Out); // Promote: the key just proved itself hot.
    return true;
  }
  return false;
}

void ResultCache::put(const Digest &Key, const CacheEntry &Entry) {
  stripeFor(Key).put(Key, Entry);
  if (Disk)
    Disk->put(Key, Entry);
}

ResultCache::Lookup
ResultCache::getOrCompute(const Digest &Key, const CancelToken *Cancel,
                          const std::function<SingleFlight::Result()> &Compute) {
  Lookup L;
  CacheEntry Hit;
  if (stripeFor(Key).get(Key, Hit)) {
    L.Src = Source::Memory;
    L.R = SingleFlight::Result::value(std::move(Hit));
    return L;
  }
  if (Disk && Disk->get(Key, Hit)) {
    stripeFor(Key).put(Key, Hit);
    L.Src = Source::Disk;
    L.R = SingleFlight::Result::value(std::move(Hit));
    return L;
  }
  SingleFlight::Role Role = SingleFlight::Role::Leader;
  L.R = Flight.run(
      Key, Cancel,
      [&] {
        SingleFlight::Result R = Compute();
        // Fill both tiers before followers wake, so the flight's result
        // and the cache agree from the first instant.
        if (R.K == SingleFlight::Result::Kind::Value)
          put(Key, R.Entry);
        return R;
      },
      &Role);
  L.Src = Role == SingleFlight::Role::Leader ? Source::Computed
                                             : Source::Coalesced;
  return L;
}

ResultCache::Stats ResultCache::stats() const {
  Stats Out;
  for (const auto &Stripe : Memory) {
    const MemoryLru::Stats S = Stripe->stats();
    Out.Memory.Hits += S.Hits;
    Out.Memory.Misses += S.Misses;
    Out.Memory.Insertions += S.Insertions;
    Out.Memory.Evictions += S.Evictions;
    Out.Memory.BytesResident += S.BytesResident;
    Out.Memory.Entries += S.Entries;
  }
  if (Disk) {
    Out.Disk = Disk->stats();
    Out.HasDisk = true;
  }
  Out.Flight = Flight.stats();
  return Out;
}

std::string ResultCache::summary() const {
  Stats S = stats();
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "hits=%llu misses=%llu evictions=%llu coalesced=%llu "
                "bytes=%llu disk_hits=%llu disk_writes=%llu",
                (unsigned long long)S.Memory.Hits,
                (unsigned long long)S.Memory.Misses,
                (unsigned long long)S.Memory.Evictions,
                (unsigned long long)S.Flight.Coalesced,
                (unsigned long long)S.Memory.BytesResident,
                (unsigned long long)S.Disk.Hits,
                (unsigned long long)S.Disk.Writes);
  return Buf;
}
